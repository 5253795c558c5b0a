(* Figure 7: graphical overlap of the javac call-edge profile — the
   sample-percentage of each hot call edge under the perfect profile vs a
   profile sampled at interval 1000 with Full-Duplication.

   The paper plots the top ~50 edges and reports a 93.8% overlap; we emit
   the same series as a table (and CSV) so the bar-and-dot plot can be
   regenerated. *)

type point = { edge : string; perfect_pct : float; sampled_pct : float }

type data = {
  points : point list;
  overlap : float;
  n_samples : int;
  failures : Robust.failure list;
}

let paper_overlap = 93.8

(* Pure-data description for Schedule; the perfect cell is exactly
   Common.perfect_profiles' run. *)
let requests ?scale ?(interval = 1_000) () =
  let both = [ "call-edge"; "field-access" ] in
  [
    Schedule.instrumented ?scale ~variant:Schedule.Full_dup ~specs:both
      ~trigger:Core.Sampler.Always "javac";
    Schedule.instrumented ?scale ~variant:Schedule.Full_dup ~specs:both
      ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
      "javac";
  ]

let run ?config ?scale ?jobs ?(interval = 1_000) ?(top = 50) () =
  let scope = Measure.scope ?config ?scale () in
  let bench = Workloads.Suite.find "javac" in
  (* a 2-cell grid: the perfect profile and the sampled run are
     independent computations; only keyed profiles (marshal-safe) are
     checkpointed, never metrics *)
  let cells =
    [
      (fun () ->
        `Perfect
          (Robust.cell ~scope ~key:"figure7/perfect" (fun () ->
               fst
                 (Common.perfect_profiles
                    (Measure.prepare ?config ?scale bench)))));
      (fun () ->
        `Sampled
          (Robust.cell ~scope
             ~key:(Printf.sprintf "figure7/sampled@%d" interval)
             (fun () ->
               let build = Measure.prepare ?config ?scale bench in
               let m =
                 Measure.run_transformed
                   ~trigger:(Core.Sampler.Counter { interval; jitter = 0 })
                   ~transform:(Core.Transform.full_dup Common.both_specs)
                   build
               in
               ( Profiles.Call_edge.to_keyed
                   m.Measure.collector.Profiles.Collector.call_edges,
                 m.Measure.samples ))));
    ]
  in
  let perfect_o, sampled_o =
    match Pool.map ?jobs (fun cell -> cell ()) cells with
    | [ `Perfect p; `Sampled s ] -> (p, s)
    | _ -> assert false
  in
  match (perfect_o, sampled_o) with
  | Ok perfect_ce, Ok (sampled_ce, n_samples) ->
      let perfect_pcts = Profiles.Overlap.sample_percentages perfect_ce in
      let sampled_pcts = Profiles.Overlap.sample_percentages sampled_ce in
      let sampled_of e =
        Option.value ~default:0.0 (List.assoc_opt e sampled_pcts)
      in
      let points =
        List.filteri (fun i _ -> i < top) perfect_pcts
        |> List.map (fun (e, p) ->
               { edge = e; perfect_pct = p; sampled_pct = sampled_of e })
      in
      {
        points;
        overlap = Profiles.Overlap.percent perfect_ce sampled_ce;
        n_samples;
        failures = [];
      }
  | _ ->
      let fail = function Error f -> [ f ] | Ok _ -> [] in
      {
        points = [];
        overlap = Float.nan;
        n_samples = 0;
        failures = fail perfect_o @ fail sampled_o;
      }

let to_string d =
  Printf.sprintf "javac call-edge profile, overlap = %.1f%% (%d samples)\n"
    d.overlap d.n_samples
  ^ Text_table.render
      ~header:[ "Call edge"; "Perfect (%)"; "Sampled (%)" ]
      (List.map
         (fun p ->
           [
             p.edge;
             Printf.sprintf "%.3f" p.perfect_pct;
             Printf.sprintf "%.3f" p.sampled_pct;
           ])
         d.points)

let to_csv d =
  "edge,perfect_pct,sampled_pct\n"
  ^ String.concat ""
      (List.map
         (fun p ->
           Printf.sprintf "%s,%.4f,%.4f\n" p.edge p.perfect_pct p.sampled_pct)
         d.points)

let print d =
  print_string "Figure 7: javac call-edge profile, perfect vs sampled\n";
  print_string (to_string d);
  match d.failures with [] -> () | fs -> print_string (Robust.report fs)
