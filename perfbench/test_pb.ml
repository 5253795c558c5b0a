(* Tests for the benchmark's own machinery: seeded generators, the
   percentile rule, span self-time arithmetic and the serve oracle. *)

open Pbcore

let lines jobs = List.map Serve.Job.render jobs

let test_generators_deterministic () =
  let a = Gen.serve_jobs ~seed:5 ~rounds:3 in
  let b = Gen.serve_jobs ~seed:5 ~rounds:3 in
  Alcotest.(check (list string)) "same seed, same job lines" (lines a) (lines b);
  Alcotest.(check bool)
    "another seed, other jobs" false
    (lines a = lines (Gen.serve_jobs ~seed:6 ~rounds:3));
  let digests = List.sort_uniq compare (List.map Serve.Job.digest a) in
  Alcotest.(check int) "no job repeats" (List.length a) (List.length digests);
  let strata l =
    List.sort_uniq compare
      (List.map (fun (j : Serve.Job.t) -> (j.bench, j.scale, j.trigger)) l)
  in
  let round0 = List.filteri (fun i _ -> i < List.length a / 3) a in
  Alcotest.(check int)
    "each round holds every stratum once" (List.length (strata a))
    (List.length (strata round0));
  Alcotest.(check int) "three rounds" (3 * List.length (strata a)) (List.length a)

let test_percentile_refuses_thin_tails () =
  let xs n = List.init n float_of_int in
  Alcotest.(check (option (float 0.0))) "99 samples: 9 beyond p90" None
    (Stats.percentile ~p:90.0 (xs 99));
  Alcotest.(check (option (float 0.0))) "100 samples: 10 beyond p90" (Some 89.0)
    (Stats.percentile ~p:90.0 (xs 100));
  Alcotest.(check (option (float 0.0))) "p50 of 21" (Some 10.0)
    (Stats.percentile ~p:50.0 (xs 21));
  Alcotest.(check (float 0.0)) "median, even count" 1.5 (Stats.median [ 3.0; 0.0; 2.0; 1.0 ])

let test_self_time () =
  let sp id parent name start stop = { Spans.id; parent; name; start; stop } in
  (* root [0,10] with children a [1,4] and b [3,6]; a has child c [2,3] *)
  let spans =
    [ sp 0 (-1) "root" 0.0 10.0; sp 1 0 "a" 1.0 4.0; sp 2 0 "b" 3.0 6.0; sp 3 1 "c" 2.0 3.0 ]
  in
  let self = List.map (fun ((s : Spans.span), t) -> (s.name, t)) (Spans.self_times spans) in
  let get n = List.assoc n self in
  Alcotest.(check (float 1e-9)) "root minus union of children" 5.0 (get "root");
  Alcotest.(check (float 1e-9)) "a minus c" 2.0 (get "a");
  Alcotest.(check (float 1e-9)) "b has no children" 3.0 (get "b");
  Alcotest.(check (float 1e-9)) "leaf" 1.0 (get "c");
  let tot = Spans.self_by_name [ spans; [ sp 0 (-1) "a" 20.0 20.5 ] ] in
  Alcotest.(check (float 1e-9)) "summed over buffers" 2.5 (Hashtbl.find tot "a");
  Alcotest.(check (float 1e-9))
    "unattributed: window minus root cover, per working buffer" 10.0
    (Spans.unattributed ~t0:0.0 ~t1:12.0 [ spans; [ sp 0 (-1) "x" 8.0 12.0 ]; [] ]);
  Alcotest.(check (float 1e-9))
    "overhead: spans x cost over the phase without them" (0.5 /. 4.5)
    (Spans.overhead_share ~span_cost:0.1 ~wall:5.0 [ spans; [ sp 0 (-1) "x" 8.0 12.0 ] ])

let test_oracle_rejects_altered_line () =
  let job =
    {
      Serve.Job.bench = "compress";
      scale = Some 1;
      variant = "full-dup";
      specs = [ "call-edge" ];
      trigger = Serve.Job.Counter { interval = 100; jitter = 0 };
      engine = `Fast;
      recording = `Slots;
      poison = false;
    }
  in
  let e = Oracle.expected job in
  let summary, merged = Serve.Job.execute_full { job with engine = `Ref } in
  let line = Serve.Job.result_line ~id:7 job (Serve.Job.Done summary) in
  let payload = Profiles.Merge.render merged in
  Alcotest.(check bool) "the true line passes" true
    (Result.is_ok (Oracle.check ~id:7 job e ~line ~payload:(Some payload)));
  let altered =
    Serve.Job.result_line ~id:7 job
      (Serve.Job.Done { summary with cycles = summary.cycles + 1 })
  in
  Alcotest.(check bool) "an altered result line fails" true
    (Result.is_error (Oracle.check ~id:7 job e ~line:altered ~payload:None));
  Alcotest.(check bool) "another id fails" true
    (Result.is_error (Oracle.check ~id:8 job e ~line ~payload:None));
  Alcotest.(check bool) "an altered payload fails" true
    (Result.is_error (Oracle.check ~id:7 job e ~line ~payload:(Some (payload ^ " "))));
  let recorded = Oracle.load "oracle/serve-cold.md5" in
  Alcotest.(check bool) "the recorded oracle agrees" true
    (Hashtbl.find_opt recorded (Serve.Job.digest job) = Some e);
  Alcotest.(check int) "one recorded oracle per job the generator can draw"
    (List.length (Gen.universe ())) (Hashtbl.length recorded)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "generators are deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "percentile refuses thin tails" `Quick
            test_percentile_refuses_thin_tails;
          Alcotest.test_case "self time on a hand-built tree" `Quick test_self_time;
          Alcotest.test_case "oracle rejects an altered line" `Quick
            test_oracle_rejects_altered_line;
        ] );
    ]
