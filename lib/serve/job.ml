(* A profiling job: the pure-data description of one measurement a
   client asks the daemon to perform, with a canonical single-line
   rendering that is simultaneously the wire format (SUBMIT lines), the
   job-file format, the journal format and the input to the job digest.
   Canonical means: every field present, fixed order, fixed spellings —
   [parse (render j) = j] and two jobs render equal iff they would
   perform the identical measurement. *)

type trigger =
  | Counter of { interval : int; jitter : int }
  | Counter_per_thread of { interval : int }
  | Timer_bit
  | Always
  | Never

type t = {
  bench : string;
  scale : int option;
  variant : string;
  specs : string list;
  trigger : trigger;
  engine : [ `Ref | `Fast ];
  recording : [ `Slots | `Legacy ];
  poison : bool;
      (* a deliberately broken job (raises a bug-classified failure
         instead of running): the fault-injection hook chaos fleets and
         the quarantine tests use to exercise the poison-job path *)
}

(* The CLI-name tables for instrumentations and variants.  These are
   the single source of truth — bin/isf.ml parses its --instr/--variant
   arguments against the same lists, so the daemon accepts exactly the
   vocabulary of the one-shot verbs. *)
let instr_kinds =
  [
    ("call-edge", Core.Spec.call_edge);
    ("field-access", Core.Spec.field_access);
    ("edge", Core.Spec.edge_profile);
    ("value", Core.Spec.value_profile);
    ("path", Profiles.Specs.path_profile);
    ("receiver", Profiles.Specs.receiver_profile);
    ("cct", Profiles.Specs.cct_profile);
  ]

let variants =
  [
    ("full-dup", Core.Transform.full_dup);
    ("no-dup", Core.Transform.no_dup);
    ("partial-dup", Core.Transform.partial_dup);
    ("yp-opt", Core.Transform.full_dup_yieldpoint_opt);
    ("exhaustive", Core.Transform.exhaustive);
  ]

let spec_of_names names =
  match names with
  | [] -> Core.Spec.combine [ Core.Spec.call_edge; Core.Spec.field_access ]
  | l -> Core.Spec.combine (List.map (fun n -> List.assoc n instr_kinds) l)

let transform_of_variant spec v = (List.assoc v variants) spec

(* ------------------------------------------------------------------ *)
(* Canonical line                                                      *)
(* ------------------------------------------------------------------ *)

let trigger_str = function
  | Counter { interval; jitter } -> Printf.sprintf "counter:%d:%d" interval jitter
  | Counter_per_thread { interval } -> Printf.sprintf "cpt:%d" interval
  | Timer_bit -> "timer-bit"
  | Always -> "always"
  | Never -> "never"

let engine_str = function `Ref -> "ref" | `Fast -> "fast"
let recording_str = function `Slots -> "slots" | `Legacy -> "legacy"

let render j =
  Printf.sprintf
    "bench=%s scale=%s variant=%s specs=%s trigger=%s engine=%s recording=%s \
     poison=%s"
    j.bench
    (match j.scale with Some s -> string_of_int s | None -> "default")
    j.variant
    (String.concat "," j.specs)
    (trigger_str j.trigger) (engine_str j.engine) (recording_str j.recording)
    (if j.poison then "yes" else "no")

let digest j = Harness.Digest.hex (render j)

let bad line fmt =
  Printf.ksprintf
    (fun m -> failwith (Printf.sprintf "bad job %S: %s" line m))
    fmt

let parse_trigger line s =
  match String.split_on_char ':' s with
  | [ "counter"; i; j ] -> (
      match (int_of_string_opt i, int_of_string_opt j) with
      | Some interval, Some jitter when interval >= 1 && jitter >= 0 ->
          Counter { interval; jitter }
      | _ -> bad line "bad counter trigger %s" s)
  | [ "cpt"; i ] -> (
      match int_of_string_opt i with
      | Some interval when interval >= 1 -> Counter_per_thread { interval }
      | _ -> bad line "bad per-thread trigger %s" s)
  | [ "timer-bit" ] -> Timer_bit
  | [ "always" ] -> Always
  | [ "never" ] -> Never
  | _ -> bad line "unknown trigger %s" s

let parse line =
  let fields =
    List.filter_map
      (fun tok ->
        if String.equal tok "" then None
        else
          match String.index_opt tok '=' with
          | None -> bad line "token %S is not key=value" tok
          | Some i ->
              Some
                ( String.sub tok 0 i,
                  String.sub tok (i + 1) (String.length tok - i - 1) ))
      (String.split_on_char ' ' (String.trim line))
  in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> bad line "missing field %s" k
  in
  List.iter
    (fun (k, _) ->
      if
        not
          (List.mem k
             [
               "bench"; "scale"; "variant"; "specs"; "trigger"; "engine";
               "recording"; "poison";
             ])
      then bad line "unknown field %s" k)
    fields;
  let bench = get "bench" in
  (* an unknown benchmark parses fine and fails at execution time,
     classified "bug" — that is exactly what makes it a poison job *)
  let scale =
    match get "scale" with
    | "default" -> None
    | s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Some n
        | _ -> bad line "bad scale %s" s)
  in
  let variant = get "variant" in
  if not (List.mem_assoc variant variants) then
    bad line "unknown variant %s" variant;
  let specs =
    List.filter (fun s -> s <> "") (String.split_on_char ',' (get "specs"))
  in
  if specs = [] then bad line "empty specs";
  List.iter
    (fun s ->
      if not (List.mem_assoc s instr_kinds) then
        bad line "unknown instrumentation %s" s)
    specs;
  let trigger = parse_trigger line (get "trigger") in
  let engine =
    match get "engine" with
    | "ref" -> `Ref
    | "fast" -> `Fast
    | s -> bad line "unknown engine %s" s
  in
  let recording =
    match get "recording" with
    | "slots" -> `Slots
    | "legacy" -> `Legacy
    | s -> bad line "unknown recording %s" s
  in
  let poison =
    match get "poison" with
    | "yes" -> true
    | "no" -> false
    | s -> bad line "bad poison flag %s" s
  in
  { bench; scale; variant; specs; trigger; engine; recording; poison }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  cycles : int;
  instructions : int;
  checks : int;
  samples : int;
  output_md5 : string;
  profile_md5 : string;
}

let sampler_trigger = function
  | Counter { interval; jitter } -> Core.Sampler.Counter { interval; jitter }
  | Counter_per_thread { interval } ->
      Core.Sampler.Counter_per_thread { interval }
  | Timer_bit -> Core.Sampler.Timer_bit
  | Always -> Core.Sampler.Always
  | Never -> Core.Sampler.Never

(* Profile digest over the collector's CSV rendering: deterministic
   (PR 4 pinned decode order), engine- and recording-invariant, and
   cheap to compare across fleets. *)
let profile_md5 collector =
  Harness.Digest.hex
    (String.concat "\000"
       (List.map
          (fun (kind, text) -> kind ^ "\001" ^ text)
          (Profiles.Report.to_csv collector)))

(* [execute_full] also returns the canonical aggregate form of the
   job's profile (Profiles.Merge) — the payload of the daemon's PROFILE
   frames and the unit the fleet merge combines.  The cached
   Measure.metrics carry the collector, so a warm run-cache hit still
   yields the payload without re-running anything. *)
let execute_full ?(config = Harness.Measure.default) j =
  if j.poison then
    failwith (Printf.sprintf "injected poison job (bench=%s)" j.bench);
  let bench =
    match Workloads.Suite.find j.bench with
    | b -> b
    | exception Not_found ->
        failwith (Printf.sprintf "unknown benchmark %s" j.bench)
  in
  let config =
    { config with Harness.Measure.engine = j.engine; recording = j.recording }
  in
  let build = Harness.Measure.prepare ~config ?scale:j.scale bench in
  let spec = spec_of_names j.specs in
  let transform = transform_of_variant spec j.variant in
  let m =
    Harness.Measure.run_transformed ~trigger:(sampler_trigger j.trigger)
      ~transform build
  in
  ( {
      cycles = m.Harness.Measure.cycles;
      instructions = m.Harness.Measure.instructions;
      checks = m.Harness.Measure.checks;
      samples = m.Harness.Measure.samples;
      output_md5 = Harness.Digest.hex m.Harness.Measure.output;
      profile_md5 = profile_md5 m.Harness.Measure.collector;
    },
    Profiles.Merge.of_collector m.Harness.Measure.collector )

let execute ?config j = fst (execute_full ?config j)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type status =
  | Done of summary
  | Failed of { classification : string; message : string }
  | Quarantined of { message : string }

let summary_str s =
  Printf.sprintf "cycles=%d instr=%d checks=%d samples=%d output=%s profile=%s"
    s.cycles s.instructions s.checks s.samples s.output_md5 s.profile_md5

(* One canonical result line per job.  Deliberately free of attempt
   counts, timestamps and worker ids: a fleet's sorted result lines must
   be byte-identical however the jobs were scheduled, retried or
   resumed after a daemon crash. *)
let result_line ~id j status =
  Printf.sprintf "%06d %s %s" id (digest j)
    (match status with
    | Done s -> "OK " ^ summary_str s
    | Failed { classification; message } ->
        Printf.sprintf "ERR %s %s" classification (String.escaped message)
    | Quarantined { message } ->
        Printf.sprintf "QUARANTINED %s" (String.escaped message))

(* The same line under another id: a socket client renumbers the
   daemon's ids to its own entry positions. *)
let renumber ~id line =
  match String.index_opt line ' ' with
  | Some i -> Printf.sprintf "%06d%s" id (String.sub line i (String.length line - i))
  | None -> failwith ("bad result line " ^ String.escaped line)
