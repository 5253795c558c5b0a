(* Content-addressed run cache ([Harness.Runcache] + [Harness.Digest])
   and the global deduplicating scheduler ([Harness.Schedule]): key
   determinism and distinctness (engine/recording/trigger/faults never
   alias), the two-tier hit path, tolerance of corrupt and truncated
   disk entries, loud refusal of digest collisions and incompatible
   cache versions, compute-once under domain races, byte-identical
   table output cold vs. warm across both engines and both recording
   paths, chaos isolation, checkpoint composition, and full scheduler
   coverage of a driver's cells. *)

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

module R = Harness.Runcache
module D = Harness.Digest
module M = Harness.Measure

module C = R.Make (struct
  type t = string
end)

let tmp_dir name =
  let path = Filename.temp_file ("isf_" ^ name) ".cache" in
  Sys.remove path;
  path

(* The cache is global; every test that arms it must disarm it.  Memory
   is reset on entry so a reference run computed before arming cannot
   satisfy the "cold" run from the memo tier (which would leave nothing
   stored on disk). *)
let with_cache dir f =
  R.reset_memory ();
  R.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      R.set_dir None;
      R.reset_memory ())
    f

let mk_key ?(engine = "fast") ?(recording = "slots") ?(trigger = "none")
    ?(faults = "none") ?(bench = "jess") () =
  D.run_config ~kind:"test" ~bench ~scale:1 ~funcs_digest:(D.hex "funcs")
    ~engine ~recording ~trigger ~timer_period:None
    ~costs:(D.costs Vm.Costs.default) ~faults ()

(* ---- digests ---- *)

let test_digest_keys () =
  check_str "same config digests identically" (mk_key ()) (mk_key ());
  let distinct what a b =
    check_bool (what ^ " never alias") false (String.equal a b)
  in
  distinct "engines" (mk_key ~engine:"ref" ()) (mk_key ~engine:"fast" ());
  distinct "recordings"
    (mk_key ~recording:"legacy" ())
    (mk_key ~recording:"slots" ());
  distinct "triggers"
    (mk_key ~trigger:(D.trigger (Core.Sampler.Counter { interval = 1000; jitter = 0 })) ())
    (mk_key ~trigger:(D.trigger Core.Sampler.Always) ());
  distinct "benchmarks" (mk_key ~bench:"jess" ()) (mk_key ~bench:"db" ());
  check_str "empty fault plan is the clean marker" "none"
    (D.fault_plan Fault.none);
  let chaos seed = D.fault_plan (Fault.of_seed ~compile_fail_pct:25 seed) in
  check_str "fault digests are deterministic" (chaos 7) (chaos 7);
  distinct "fault seeds" (chaos 7) (chaos 8);
  distinct "chaos and clean runs" (mk_key ()) (mk_key ~faults:(chaos 7) ());
  (* every trigger form renders distinctly *)
  let triggers =
    List.map D.trigger
      [
        Core.Sampler.Counter { interval = 100; jitter = 0 };
        Core.Sampler.Counter { interval = 100; jitter = 25 };
        Core.Sampler.Counter_per_thread { interval = 100 };
        Core.Sampler.Timer_bit;
        Core.Sampler.Always;
        Core.Sampler.Never;
      ]
  in
  check_int "trigger renderings all distinct" (List.length triggers)
    (List.length (List.sort_uniq compare triggers))

(* ---- two-tier hit path ---- *)

let test_memory_then_disk () =
  let dir = tmp_dir "tiers" in
  let key = mk_key ~bench:"tiers" () in
  let runs = ref 0 in
  let body v () =
    incr runs;
    v
  in
  with_cache dir (fun () ->
      check_str "computed" "v" (C.find ~key (body "v"));
      check_str "memory hit" "v" (C.find ~key (body "other"));
      check_int "computed once" 1 !runs;
      R.reset_memory ();
      check_str "disk hit after memory reset" "v" (C.find ~key (body "other"));
      check_int "disk tier never re-runs the body" 1 !runs;
      let s = R.stats () in
      check_int "disk hit counted" 1 s.R.disk_hits;
      check_int "no misses after reset" 0 s.R.misses)

let test_corrupt_entries_are_misses () =
  let dir = tmp_dir "corrupt" in
  let key = mk_key ~bench:"corrupt" () in
  let path () = Filename.concat dir (D.hex key ^ ".cell") in
  with_cache dir (fun () ->
      check_str "computed" "good" (C.find ~key (fun () -> "good"));
      check_bool "entry on disk" true (Sys.file_exists (path ()));
      (* truncate mid-record, like a torn write from a killed process *)
      let bytes = In_channel.with_open_bin (path ()) In_channel.input_all in
      Out_channel.with_open_bin (path ()) (fun oc ->
          Out_channel.output_string oc
            (String.sub bytes 0 (String.length bytes / 2)));
      R.reset_memory ();
      check_str "truncated entry recomputes" "again"
        (C.find ~key (fun () -> "again"));
      R.reset_memory ();
      check_str "recomputed entry was rewritten" "again"
        (C.find ~key (fun () -> Alcotest.fail "should hit disk"));
      (* a foreign file under the entry's name is a miss, not a crash *)
      Out_channel.with_open_bin (path ()) (fun oc ->
          Out_channel.output_string oc "not a cache entry at all");
      R.reset_memory ();
      check_str "garbage entry recomputes" "fresh"
        (C.find ~key (fun () -> "fresh")))

let test_collision_is_loud () =
  let dir = tmp_dir "collision" in
  let key = mk_key ~bench:"collision" () in
  with_cache dir (fun () ->
      (* forge an entry that parses and verifies but embeds a different
         run key: the one defect that must never be served silently *)
      let payload = Marshal.to_string "forged" [] in
      let entry =
        "ISF-RUNCACHE-ENTRY 1\n"
        ^ Marshal.to_string
            ("some other run key", Stdlib.Digest.string payload, payload)
            []
      in
      Out_channel.with_open_bin
        (Filename.concat dir (D.hex key ^ ".cell"))
        (fun oc -> Out_channel.output_string oc entry);
      check_bool "digest collision raises" true
        (try
           ignore (C.find ~key (fun () -> "x"));
           false
         with Failure _ -> true))

let test_version_mismatch_refused () =
  let dir = tmp_dir "version" in
  Unix.mkdir dir 0o700;
  Out_channel.with_open_text (Filename.concat dir "CACHE_VERSION") (fun oc ->
      Out_channel.output_string oc "isf-runcache 0 ocaml-0.0.0\n");
  check_bool "incompatible cache dir refused" true
    (try
       R.set_dir (Some dir);
       R.set_dir None;
       false
     with Failure _ -> true);
  check_bool "cache stays disarmed after refusal" true (R.dir () = None)

let test_race_computes_once () =
  let key = mk_key ~bench:"race" () in
  let runs = Atomic.make 0 in
  let vals =
    Harness.Pool.map ~jobs:2
      (fun i ->
        C.find ~key (fun () ->
            Atomic.incr runs;
            Unix.sleepf 0.01;
            "r" ^ string_of_int i))
      [ 0; 1 ]
  in
  (match vals with
  | [ a; b ] -> check_str "both domains observe one value" a b
  | _ -> Alcotest.fail "expected two results");
  check_int "racing domains compute once" 1 (Atomic.get runs);
  R.reset_memory ()

(* ---- end-to-end: table output through the cache ---- *)

let benches () = [ Workloads.Suite.find "jess"; Workloads.Suite.find "db" ]

(* Robust.persist fills its in-memory cell store even with no checkpoint
   armed, so an honest re-measurement must clear it first. *)
let fresh_table ?config () =
  Harness.Robust.set_checkpoint None;
  Harness.Table1.to_string
    (Harness.Table1.run ?config ~scale:1 ~benches:(benches ()) ())

let test_cold_warm_byte_identical () =
  List.iter
    (fun (engine, recording) ->
      let config = { M.default with engine; recording } in
      R.reset_memory ();
      let plain = fresh_table ~config () in
      let dir = tmp_dir "coldwarm" in
      with_cache dir (fun () ->
          let cold = fresh_table ~config () in
          R.reset_memory ();
          let warm = fresh_table ~config () in
          check_str "cold == uncached" plain cold;
          check_str "warm == cold" cold warm;
          let s = R.stats () in
          check_int "warm run misses nothing" 0 s.R.misses;
          check_bool "warm run served from disk" true (s.R.disk_hits > 0)))
    [ (`Ref, `Slots); (`Ref, `Legacy); (`Fast, `Slots); (`Fast, `Legacy) ]

(* Which config fields enter the run key: a cache filled under the
   default config serves nothing to a flipped engine or chaos seed,
   only the recording-free baseline to a flipped recording, and
   everything to a flipped watchdog (it can only fail a run, and
   failures are never cached). *)
let test_config_fields_in_key () =
  let measure config =
    let build = M.prepare ~config ~scale:1 (Workloads.Suite.find "jess") in
    (try ignore (M.run_baseline build) with _ -> ());
    try
      ignore
        (M.run_transformed
           ~trigger:(Core.Sampler.Counter { interval = 100; jitter = 0 })
           ~transform:(Core.Transform.full_dup Harness.Common.both_specs)
           build)
    with _ -> ()
  in
  let disk_hits config =
    R.reset_memory ();
    measure config;
    (R.stats ()).R.disk_hits
  in
  with_cache (tmp_dir "cfgkey") (fun () ->
      measure M.default;
      check_int "default refills from disk" 2 (disk_hits M.default);
      check_int "engine flipped" 0 (disk_hits { M.default with engine = `Ref });
      check_int "recording flipped: the baseline only" 1
        (disk_hits { M.default with recording = `Legacy });
      check_int "chaos flipped" 0 (disk_hits { M.default with chaos = Some 3 });
      check_int "watchdog flipped" 2
        (disk_hits { M.default with watchdog = 5000.0 }))

(* Perfect profiles follow the build's config: after the clean ones are
   computed, the same build under chaos measures its own instead of
   returning the clean run.  Seed 4's plan lets jess at scale 1 run to
   completion (most seeds trap it, and a failing run counts no miss). *)
let test_perfect_profiles_follow_config () =
  R.reset_memory ();
  let bench = Workloads.Suite.find "jess" in
  let clean = Harness.Common.perfect_profiles (M.prepare ~scale:1 bench) in
  let misses () = (R.stats ()).R.misses in
  let before = misses () in
  check_bool "clean repeat served from memory" true
    (Harness.Common.perfect_profiles (M.prepare ~scale:1 bench) = clean);
  check_int "no clean recompute" before (misses ());
  let config = { M.default with chaos = Some 4 } in
  ignore (Harness.Common.perfect_profiles (M.prepare ~config ~scale:1 bench));
  check_int "chaos perfect profiles measured, not the clean memo"
    (before + 1) (misses ());
  R.reset_memory ()

let test_chaos_never_aliases_clean () =
  let dir = tmp_dir "chaos" in
  with_cache dir (fun () ->
      let cold = fresh_table () in
      R.reset_memory ();
      ignore (fresh_table ~config:{ M.default with chaos = Some 11 } ());
      let s = R.stats () in
      check_int "no chaos cell served from a clean entry" 0 s.R.disk_hits;
      check_bool "chaos cells were computed" true (s.R.misses > 0);
      R.reset_memory ();
      let warm = fresh_table () in
      check_str "clean results undisturbed by the chaos run" cold warm;
      check_int "clean warm run misses nothing" 0 (R.stats ()).R.misses)

(* Completed cells answer only for the configuration they were measured
   under: a chaos table after a clean one in the same process, with the
   clean cells still in Robust's store, is the chaos table. *)
let test_cells_follow_config () =
  let table ?config () =
    Harness.Table1.to_string
      (Harness.Table1.run ?config ~scale:1 ~benches:(benches ()) ())
  in
  let config = { M.default with chaos = Some 11 } in
  let chaos = fresh_table ~config () in
  let clean = fresh_table () in
  check_bool "chaos changes the table" true (chaos <> clean);
  check_str "chaos after clean, one process" chaos (table ~config ());
  check_str "clean after chaos, one process" clean (table ());
  Harness.Robust.set_checkpoint None;
  R.reset_memory ()

let test_checkpoint_and_cache_compose () =
  let plain = fresh_table () in
  let dir = tmp_dir "compose" in
  let ckpt = Filename.temp_file "isf_compose" ".ckpt" in
  Sys.remove ckpt;
  let with_ckpt f =
    Harness.Robust.set_checkpoint ~meta:"rc" (Some ckpt);
    Fun.protect ~finally:(fun () -> Harness.Robust.set_checkpoint None) f
  in
  let table () =
    Harness.Table1.to_string
      (Harness.Table1.run ~scale:1 ~benches:(benches ()) ())
  in
  with_cache dir (fun () ->
      check_str "cold with both armed" plain (with_ckpt table);
      R.reset_memory ();
      check_str "checkpoint resume with cache armed" plain (with_ckpt table);
      (* a fresh checkpoint against the warm cache: cells re-run through
         Measure and every measurement comes from disk *)
      R.reset_memory ();
      let ckpt2 = Filename.temp_file "isf_compose2" ".ckpt" in
      Sys.remove ckpt2;
      Harness.Robust.set_checkpoint ~meta:"rc" (Some ckpt2);
      Fun.protect
        ~finally:(fun () -> Harness.Robust.set_checkpoint None)
        (fun () -> check_str "fresh checkpoint, warm cache" plain (table ()));
      check_int "warm cache fed every cell" 0 (R.stats ()).R.misses;
      Sys.remove ckpt2);
  Sys.remove ckpt

(* ---- shared-directory hygiene (ISSUE 8) ---- *)

let test_stale_tmp_sweep () =
  let dir = tmp_dir "sweep" in
  (* arming once creates the directory and its version stamp *)
  with_cache dir (fun () -> ());
  let stale = Filename.concat dir "isf-dead0.tmp" in
  let fresh = Filename.concat dir "isf-live1.tmp" in
  let foreign = Filename.concat dir "not-ours.tmp" in
  List.iter
    (fun p -> Out_channel.with_open_bin p (fun oc -> output_string oc "x"))
    [ stale; fresh; foreign ];
  (* age the orphan past the threshold; the fresh one could belong to a
     concurrent daemon about to rename it *)
  let old = Unix.gettimeofday () -. R.stale_tmp_age -. 60.0 in
  Unix.utimes stale old old;
  with_cache dir (fun () ->
      check_bool "stale orphan swept on open" false (Sys.file_exists stale);
      check_bool "recent tmp file untouched" true (Sys.file_exists fresh);
      check_bool "foreign files untouched" true (Sys.file_exists foreign))

(* Two daemons sharing one --cache DIR: racing writers of the same keys
   must leave a directory where every entry still verifies.  The second
   writer is a real child process (test/cache_proc.ml) — Unix.fork is
   unavailable once domains have been spawned, and the property under
   test is the cross-process atomicity of temp+rename anyway. *)
let test_two_process_writers_collide_safely () =
  let dir = tmp_dir "twoproc" in
  let n = 8 in
  let keys = List.init n (fun i -> mk_key ~bench:("2p" ^ string_of_int i) ()) in
  let write_all tag =
    List.iter
      (fun key -> ignore (C.find ~key (fun () -> "payload:" ^ tag)))
      keys
  in
  let helper =
    Filename.concat (Filename.dirname Sys.executable_name) "cache_proc.exe"
  in
  check_bool "helper executable present (dune build @all)" true
    (Sys.file_exists helper);
  let pid =
    Unix.create_process helper
      [| helper; dir; "child"; string_of_int n |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  with_cache dir (fun () -> write_all "parent");
  let _, status = Unix.waitpid [] pid in
  check_bool "child wrote its copy cleanly" true (status = Unix.WEXITED 0);
  (* whoever won each rename, every entry must read back verified *)
  with_cache dir (fun () ->
      List.iter
        (fun key ->
          let v = C.find ~key (fun () -> Alcotest.fail "should hit disk") in
          check_bool "entry readable and verified" true
            (v = "payload:parent" || v = "payload:child"))
        keys;
      let s = R.stats () in
      check_int "no corrupt entries after the race" 0 s.R.corrupt;
      check_int "every key served from disk" (List.length keys) s.R.disk_hits)

(* ---- scheduler ---- *)

let test_dedupe () =
  let b = Harness.Schedule.baseline "jess" in
  let i =
    Harness.Schedule.instrumented ~variant:Harness.Schedule.Exhaustive
      ~specs:[ "call-edge" ] "jess"
  in
  check_int "duplicates dropped, order stable" 2
    (List.length (Harness.Schedule.dedupe [ b; i; b; i; b ]));
  check_bool "first occurrence wins" true
    (Harness.Schedule.dedupe [ b; i; b ] = [ b; i ])

let test_prewarm_covers_driver () =
  Harness.Robust.set_checkpoint None;
  R.reset_memory ();
  let plain = fresh_table () in
  R.reset_memory ();
  Harness.Schedule.prewarm
    (Harness.Table1.requests ~scale:1 ~benches:(benches ()) ());
  let before = R.stats () in
  check_bool "prewarm computed cells" true (before.R.misses > 0);
  let out = fresh_table () in
  let after = R.stats () in
  check_str "driver output unchanged by prewarm" plain out;
  check_int "driver found every cell prewarmed" 0
    (after.R.misses - before.R.misses);
  R.reset_memory ()

let suite =
  [
    ( "runcache",
      [
        Alcotest.test_case "run keys: deterministic, never aliasing" `Quick
          test_digest_keys;
        Alcotest.test_case "memory tier then disk tier" `Quick
          test_memory_then_disk;
        Alcotest.test_case "corrupt and truncated entries recompute" `Quick
          test_corrupt_entries_are_misses;
        Alcotest.test_case "digest collision is loud" `Quick
          test_collision_is_loud;
        Alcotest.test_case "incompatible version refused" `Quick
          test_version_mismatch_refused;
        Alcotest.test_case "racing domains compute once" `Quick
          test_race_computes_once;
        Alcotest.test_case "cold == warm, both engines x both recordings"
          `Quick test_cold_warm_byte_identical;
        Alcotest.test_case "chaos never aliases clean entries" `Quick
          test_chaos_never_aliases_clean;
        Alcotest.test_case "config fields in the run key" `Quick
          test_config_fields_in_key;
        Alcotest.test_case "perfect profiles follow the build's config"
          `Quick test_perfect_profiles_follow_config;
        Alcotest.test_case "cells follow the run config" `Quick
          test_cells_follow_config;
        Alcotest.test_case "checkpoint and cache compose" `Quick
          test_checkpoint_and_cache_compose;
        Alcotest.test_case "stale tmp files swept on open" `Quick
          test_stale_tmp_sweep;
        Alcotest.test_case "two processes share one cache dir safely" `Quick
          test_two_process_writers_collide_safely;
        Alcotest.test_case "scheduler dedupe" `Quick test_dedupe;
        Alcotest.test_case "prewarm covers a driver's cells" `Quick
          test_prewarm_covers_driver;
      ] );
  ]
