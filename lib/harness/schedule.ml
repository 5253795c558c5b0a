(* Global deduplicating cell scheduler; see schedule.mli.  The only
   invariant that matters here: [execute] must reconstruct the exact
   transform a driver cell will use — same spec values, same variant
   constructor — so the transformed code digests (and therefore the
   cache keys) coincide. *)

type variant =
  | Exhaustive
  | Full_dup
  | Partial_dup
  | No_dup
  | Yp_opt
  | Checks_only of { entries : bool; backedges : bool }

type run =
  | Baseline of { bench : string; scale : int option }
  | Instrumented of {
      bench : string;
      scale : int option;
      variant : variant;
      specs : string list;
      trigger : Core.Sampler.trigger;
      timer_period : int option;
    }

let baseline ?scale bench = Baseline { bench; scale }

let instrumented ?scale ?(trigger = Core.Sampler.Never) ?timer_period ~variant
    ~specs bench =
  Instrumented { bench; scale; variant; specs; trigger; timer_period }

let spec_of_name = function
  | "call-edge" -> Core.Spec.call_edge
  | "field-access" -> Core.Spec.field_access
  | s -> invalid_arg ("Schedule: unknown instrumentation spec " ^ s)

(* a single name stays a bare spec (drivers pass [Core.Spec.call_edge]
   directly, not a 1-element combine) *)
let spec_of = function
  | [ one ] -> spec_of_name one
  | names -> Core.Spec.combine (List.map spec_of_name names)

let transform_of variant specs =
  match variant with
  | Exhaustive -> Core.Transform.exhaustive (spec_of specs)
  | Full_dup -> Core.Transform.full_dup (spec_of specs)
  | Partial_dup -> Core.Transform.partial_dup (spec_of specs)
  | No_dup -> Core.Transform.no_dup (spec_of specs)
  | Yp_opt -> Core.Transform.full_dup_yieldpoint_opt (spec_of specs)
  | Checks_only { entries; backedges } ->
      Core.Transform.checks_only ~entries ~backedges

let execute ?config = function
  | Baseline { bench; scale } ->
      ignore
        (Measure.run_baseline
           (Measure.prepare ?config ?scale (Workloads.Suite.find bench)))
  | Instrumented { bench; scale; variant; specs; trigger; timer_period } ->
      let build =
        Measure.prepare ?config ?scale (Workloads.Suite.find bench)
      in
      ignore
        (Measure.run_transformed ~trigger ?timer_period
           ~transform:(transform_of variant specs)
           build)

let dedupe runs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      if Hashtbl.mem seen r then false
      else begin
        Hashtbl.add seen r ();
        true
      end)
    runs

let prewarm ?config ?jobs runs =
  let unique = dedupe runs in
  let progress =
    Pool.Progress.create ~label:"prewarm" ~total:(List.length unique) ()
  in
  ignore
    (Pool.map ?jobs
       (fun r ->
         (* a failing run (chaos fault, watchdog) publishes nothing;
            the owning driver cell re-runs it under Robust.cell *)
         (try execute ?config r with _ -> ());
         Pool.Progress.step progress)
       unique);
  Pool.Progress.finish progress
