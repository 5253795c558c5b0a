(* Differential testing of the flat-slot recording path (Profiles.Slots)
   against the legacy event-by-event collector.

   The two recording paths must be BIT-IDENTICAL, not merely
   semantically equivalent: same return value and printed output, same
   cycle and instruction counts (the per-op charge is resolved once at
   slot-resolution time and must equal Collector.op_cost), same event
   counters, and — the strong claim — the same decoded profiles
   including hashtable iteration order: every comparison below uses the
   UNSORTED to_alist / to_keyed / hot_contexts outputs, so a decode
   that inserted keys in any order other than the legacy first-event
   order fails the test even when the multiset of counts matches.

   Every random program is run under all seven instrumentations
   combined (call edges, field accesses, basic-block edges, value TNV,
   Ball–Larus paths, receiver classes, CCT) crossed with exhaustive and
   sampled configurations, on both engines, and the full observation
   tuples are compared with structural equality against the legacy/Ref
   oracle.

   Quick/Slow split (PR 1 convention): the quick pass replays a few
   seeded programs; the QCheck property (100 random programs) registers
   as `Slow and runs under `make ci`. *)

module Lir = Ir.Lir

(* All seven profile kinds, in the CLI's order *)
let kinds =
  [
    ("call-edge", Core.Spec.call_edge);
    ("field-access", Core.Spec.field_access);
    ("edge", Core.Spec.edge_profile);
    ("value", Core.Spec.value_profile);
    ("path", Profiles.Specs.path_profile);
    ("receiver", Profiles.Specs.receiver_profile);
    ("cct", Profiles.Specs.cct_profile);
  ]

let spec_all = Core.Spec.combine (List.map snd kinds)

(* exhaustive = unguarded ops (the bench configuration); full-dup and
   no-dup cover guarded ops on the duplicated and inline paths *)
let transforms =
  [
    ("exhaustive", Core.Transform.exhaustive spec_all);
    ("full-dup", Core.Transform.full_dup spec_all);
    ("no-dup", Core.Transform.no_dup spec_all);
  ]

let triggers =
  [
    ("never", Core.Sampler.Never);
    ("counter-3", Core.Sampler.Counter { interval = 3; jitter = 0 });
    ("counter-7j2", Core.Sampler.Counter { interval = 7; jitter = 2 });
  ]

let compile src =
  let classes = Jasm.Compile.compile_string src in
  let funcs = Opt.Pipeline.front (Bytecode.To_lir.program_to_funcs classes) in
  (classes, funcs)

let instrument transform funcs =
  List.map (fun f -> (transform f).Core.Transform.func) funcs

(* Everything observable from one run through one recording path, as
   one structurally comparable value.  Profile lists are deliberately
   NOT sorted: iteration order is part of the contract. *)
let observe ~engine ~recording classes funcs trigger =
  let prog = Vm.Program.link classes ~funcs in
  let sampler = Core.Sampler.create trigger in
  let hooks, recorder, decode =
    match recording with
    | `Legacy ->
        let c = Profiles.Collector.create () in
        (Profiles.Collector.hooks c sampler, None, fun () -> c)
    | `Slots ->
        let s = Profiles.Slots.create prog in
        ( Profiles.Slots.hooks s sampler,
          Some (Profiles.Slots.recorder s),
          fun () -> Profiles.Slots.decode s )
  in
  let res =
    Vm.Interp.run ~engine ~fuel:200_000_000 ~use_icache:true ~use_dcache:true
      ?recorder prog
      ~entry:{ Lir.mclass = "Main"; mname = "main" }
      ~args:[ 5 ] hooks
  in
  let col = decode () in
  let c = res.Vm.Interp.counters in
  ( ( res.Vm.Interp.return_value,
      res.Vm.Interp.output,
      res.Vm.Interp.cycles,
      res.Vm.Interp.instructions ),
    ( c.Vm.Interp.entries,
      c.Vm.Interp.backedge_yps,
      c.Vm.Interp.entry_yps,
      c.Vm.Interp.checks,
      c.Vm.Interp.samples,
      c.Vm.Interp.thread_switches,
      c.Vm.Interp.instrument_ops ),
    ( Profiles.Call_edge.to_alist col.Profiles.Collector.call_edges,
      Profiles.Field_access.to_alist col.Profiles.Collector.fields,
      ( Profiles.Field_access.reads col.Profiles.Collector.fields,
        Profiles.Field_access.writes col.Profiles.Collector.fields ),
      Profiles.Edge_profile.to_alist col.Profiles.Collector.edges,
      Profiles.Value_profile.to_keyed col.Profiles.Collector.values,
      Profiles.Path_profile.to_alist col.Profiles.Collector.paths,
      Profiles.Receiver_profile.to_keyed col.Profiles.Collector.receivers ),
    ( Profiles.Cct.to_keyed col.Profiles.Collector.cct,
      Profiles.Cct.hot_contexts col.Profiles.Collector.cct,
      Profiles.Cct.n_nodes col.Profiles.Collector.cct,
      Profiles.Cct.max_depth col.Profiles.Collector.cct,
      Profiles.Cct.total_walks col.Profiles.Collector.cct ) )

(* Satellite invariant: the per-event charge resolved at
   slot-resolution time must equal the legacy dispatcher's
   Collector.op_cost for every op of the program — cycle equality then
   follows structurally rather than coincidentally. *)
let check_resolved_charges prog =
  let s = Profiles.Slots.create prog in
  let rc = Profiles.Slots.recorder s in
  Array.iter
    (fun (m : Vm.Program.meth) ->
      for l = 0 to Lir.num_blocks m.Vm.Program.func - 1 do
        let b = Lir.block m.Vm.Program.func l in
        Array.iter
          (fun instr ->
            match instr with
            | Lir.Instrument op | Lir.Guarded_instrument op ->
                if op.Lir.slot < 0 then
                  Alcotest.failf "op %s escaped slot resolution" op.Lir.hook;
                let resolved = rc.Vm.Machine.ev_cost.(op.Lir.slot) in
                let legacy = Profiles.Collector.op_cost op in
                if resolved <> legacy then
                  Alcotest.failf "hook %s: resolved charge %d <> op_cost %d"
                    op.Lir.hook resolved legacy
            | _ -> ())
          b.Lir.instrs
      done)
    prog.Vm.Program.methods

(* [fail]: QCheck's fail_reportf for the property, Alcotest.fail for
   the quick seeded pass *)
let check_program ~fail src =
  let classes, funcs = compile src in
  List.for_all
    (fun (tname, transform) ->
      let funcs' = instrument transform funcs in
      check_resolved_charges (Vm.Program.link classes ~funcs:funcs');
      List.for_all
        (fun (sname, trigger) ->
          let oracle = observe ~engine:`Ref ~recording:`Legacy classes funcs' trigger in
          List.for_all
            (fun (ename, engine, recording, rname) ->
              let o = observe ~engine ~recording classes funcs' trigger in
              if o <> oracle then
                fail
                  (Printf.sprintf
                     "recording paths diverge from legacy/Ref: transform %s, \
                      trigger %s, engine %s, recording %s"
                     tname sname ename rname)
              else true)
            [
              ("Ref", `Ref, `Slots, "slots");
              ("Fast", `Fast, `Legacy, "legacy");
              ("Fast", `Fast, `Slots, "slots");
            ])
        triggers)
    transforms

let recordings_agree =
  QCheck.Test.make ~count:100
    ~name:"slots: flat decode == legacy collector (all profiles x both engines)"
    Gen_jasm.arbitrary_program
    (fun p ->
      check_program
        ~fail:(fun msg -> QCheck.Test.fail_reportf "%s" msg)
        (Gen_jasm.render p))

(* quick pass: same check on a handful of programs from a pinned seed *)
let seeded_agree () =
  let rand = Random.State.make [| 0x510F5 |] in
  let progs = QCheck.Gen.generate ~n:5 ~rand Gen_jasm.program in
  List.iter
    (fun p ->
      ignore (check_program ~fail:Alcotest.fail (Gen_jasm.render p)))
    progs

(* Any set of instrumentations composes: every non-empty subset of the
   seven kinds, under every spec-driven variant, transforms to verified
   code that runs.  Kinds that put ops on one CFG edge (edge and path
   profiling) share that edge's split. *)
let all_subsets_compose () =
  let rand = Random.State.make [| 0x5E75 |] in
  let p = List.hd (QCheck.Gen.generate ~n:1 ~rand Gen_jasm.program) in
  let classes, funcs = compile (Gen_jasm.render p) in
  let variants =
    [
      ("exhaustive", Core.Transform.exhaustive);
      ("no-dup", Core.Transform.no_dup);
      ("full-dup", Core.Transform.full_dup);
      ("partial-dup", Core.Transform.partial_dup);
      ("yp-opt", Core.Transform.full_dup_yieldpoint_opt);
    ]
  in
  let n = List.length kinds in
  for mask = 1 to (1 lsl n) - 1 do
    let subset = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) kinds in
    let spec = Core.Spec.combine (List.map snd subset) in
    List.iter
      (fun (vname, variant) ->
        let what () =
          Printf.sprintf "%s -i %s" vname (String.concat "," (List.map fst subset))
        in
        match
          let funcs' = instrument (variant spec) funcs in
          List.iter Ir.Verify.check_exn funcs';
          observe ~engine:`Fast ~recording:`Slots classes funcs'
            (Core.Sampler.Counter { interval = 3; jitter = 0 })
        with
        | _ -> ()
        | exception e ->
            Alcotest.failf "%s: %s" (what ()) (Printexc.to_string e))
      variants
  done

(* Satellite: cct max_depth counts only nodes where a walk ended or
   leaves — interior uncounted prefixes never determine the depth. *)
let cct_max_depth () =
  let t = Profiles.Cct.create () in
  Alcotest.(check int) "empty" 0 (Profiles.Cct.max_depth t);
  Profiles.Cct.record t [ ("a", 1); ("b", 2); ("c", 3) ];
  Alcotest.(check int) "walk of 3" 3 (Profiles.Cct.max_depth t);
  Profiles.Cct.record t [ ("a", 1) ];
  Alcotest.(check int) "shorter walk keeps depth" 3 (Profiles.Cct.max_depth t);
  (* an imported tree can hold an uncounted leaf (no walk ended there):
     it still counts toward depth, while the uncounted interior node
     above it does not determine it *)
  let t2 = Profiles.Cct.create () in
  Profiles.Cct.import t2 ~walks:1 ~root:0
    ~children:(fun n ->
      match n with
      | 0 -> [ (("a", 1), 1) ]
      | 1 -> [ (("b", 2), 2) ]
      | _ -> [])
    ~count:(fun n -> if n = 0 then 1 else 0);
  Alcotest.(check int) "uncounted leaf depth" 2 (Profiles.Cct.max_depth t2)

let suite =
  [
    ( "slots",
      [
        Alcotest.test_case "flat == legacy on seeded programs" `Quick
          seeded_agree;
        Alcotest.test_case "cct max_depth: counted-or-leaf" `Quick
          cct_max_depth;
        Alcotest.test_case "every subset of the seven kinds composes" `Quick
          all_subsets_compose;
      ]
      @ List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ recordings_agree ] );
  ]
