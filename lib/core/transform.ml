module Lir = Ir.Lir

type result = {
  func : Lir.func;
  static_checks : int;
  duplicated_blocks : int;
}

let count_checks (f : Lir.func) =
  let n = ref 0 in
  Ir.Vec.iter
    (fun (b : Lir.block) ->
      if b.Lir.role <> Lir.Dead then begin
        (match b.Lir.term with Lir.Check _ -> incr n | _ -> ());
        Array.iter
          (function Lir.Guarded_instrument _ -> incr n | _ -> ())
          b.Lir.instrs
      end)
    f.Lir.blocks;
  !n

let count_dup (f : Lir.func) =
  let n = ref 0 in
  Ir.Vec.iter
    (fun (b : Lir.block) -> if b.Lir.role = Lir.Dup then incr n)
    f.Lir.blocks;
  !n

let mk_result func =
  { func; static_checks = count_checks func; duplicated_blocks = count_dup func }

(* Split the plan by site kind. *)
let split_plan plan =
  let entry = ref [] and before = ref [] and edges = ref [] in
  List.iter
    (fun (ins : Spec.insertion) ->
      match ins.Spec.site with
      | Spec.At_entry -> entry := ins.Spec.op :: !entry
      | Spec.Before_instr (l, i) -> before := (l, i, ins.Spec.op) :: !before
      | Spec.On_edge (u, v) -> edges := ((u, v), ins.Spec.op) :: !edges)
    plan;
  (List.rev !entry, List.rev !before, List.rev !edges)

(* Edge ops grouped per CFG edge, edges in first-appearance order and
   ops in plan order within an edge: splitting an edge moves it, so
   every op on one edge must ride in a single split (two specs, such as
   edge and path profiling, can each put an op on the same edge). *)
let group_edges edges =
  List.fold_left
    (fun acc (e, op) ->
      if List.mem_assoc e acc then
        List.map
          (fun (e', ops) -> if e' = e then (e', op :: ops) else (e', ops))
          acc
      else (e, [ op ]) :: acc)
    [] edges
  |> List.rev_map (fun (e, ops) -> (e, List.rev ops))

(* Insert ops before instructions, highest index first so earlier indices
   stay valid; ops sharing an index keep plan order. *)
let insert_before_ops f ~(relabel : Lir.label -> Lir.label) ~mk before =
  let by_label = Hashtbl.create 8 in
  List.iter
    (fun (l, i, op) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_label l) in
      Hashtbl.replace by_label l ((i, op) :: cur))
    before;
  Hashtbl.iter
    (fun l rev_ops ->
      let ops = List.rev rev_ops in
      (* group ops per index, preserving plan order within a group *)
      let by_idx = Hashtbl.create 8 in
      let idxs = ref [] in
      List.iter
        (fun (i, op) ->
          if not (Hashtbl.mem by_idx i) then idxs := i :: !idxs;
          Hashtbl.replace by_idx i
            (op :: Option.value ~default:[] (Hashtbl.find_opt by_idx i)))
        ops;
      let idxs = List.sort (fun a b -> compare b a) !idxs in
      List.iter
        (fun i ->
          let group = List.rev (Hashtbl.find by_idx i) in
          Ir.Edit.insert_before f (relabel l) i (List.map mk group))
        idxs)
    by_label

(* Entry ops go after a leading entry yieldpoint when present. *)
let insert_entry_ops f ~at ~mk ops =
  if ops <> [] then begin
    let b = Lir.block f at in
    let pos =
      if Array.length b.Lir.instrs > 0
         && b.Lir.instrs.(0) = Lir.Yieldpoint Lir.Yp_entry
      then 1
      else 0
    in
    Ir.Edit.insert_before f at pos (List.map mk ops)
  end

(* ------------------------------------------------------------------ *)
(* Exhaustive instrumentation (no framework)                           *)
(* ------------------------------------------------------------------ *)

let instrument_in_place ~mk spec f =
  let plan = Spec.plan_for spec f in
  let f = Lir.copy_func f in
  let entry_ops, before, edges = split_plan plan in
  insert_before_ops f ~relabel:Fun.id ~mk before;
  insert_entry_ops f ~at:f.Lir.entry ~mk entry_ops;
  List.iter
    (fun ((u, v), ops) ->
      ignore
        (Ir.Edit.split_edge f ~src:u ~dst:v ~role:Lir.Orig
           ~instrs:(List.map mk ops)))
    (group_edges edges);
  f

let exhaustive spec f =
  let f = instrument_in_place ~mk:(fun op -> Lir.Instrument op) spec f in
  Ir.Verify.check_exn f;
  mk_result f

(* ------------------------------------------------------------------ *)
(* No-Duplication (section 3.2)                                        *)
(* ------------------------------------------------------------------ *)

let no_dup spec f =
  let f = instrument_in_place ~mk:(fun op -> Lir.Guarded_instrument op) spec f in
  Ir.Verify.check_exn f;
  mk_result f

(* ------------------------------------------------------------------ *)
(* Checks only (Table 2 breakdown)                                     *)
(* ------------------------------------------------------------------ *)

let checks_only ~entries ~backedges f =
  let f = Lir.copy_func f in
  let bedges = Ir.Loops.retreating_edges f in
  if backedges then
    List.iter
      (fun (u, v) ->
        let c =
          Lir.add_block f
            {
              Lir.instrs = [||];
              term = Lir.Check { on_sample = v; fall = v };
              role = Lir.Check_block;
            }
        in
        let bu = Lir.block f u in
        Lir.set_block f u
          { bu with Lir.term = Ir.Edit.retarget_term bu.Lir.term ~from_:v ~to_:c })
      bedges;
  let f =
    if entries then begin
      let e =
        Lir.add_block f
          {
            Lir.instrs = [||];
            term = Lir.Check { on_sample = f.Lir.entry; fall = f.Lir.entry };
            role = Lir.Check_block;
          }
      in
      { f with Lir.entry = e }
    end
    else f
  in
  Ir.Verify.check_exn f;
  mk_result f

(* ------------------------------------------------------------------ *)
(* Full-Duplication (section 2)                                        *)
(* ------------------------------------------------------------------ *)

(* Returns the transformed function plus the orig<->dup correspondence
   needed by Partial-Duplication. *)
let full_dup_core spec f0 =
  let plan = Spec.plan_for spec f0 in
  let f = Lir.copy_func f0 in
  let bedges = Ir.Loops.retreating_edges f in
  let n_orig = Lir.num_blocks f in
  let mapping = Ir.Edit.clone_blocks f ~role:Lir.Dup (fun _ -> true) in
  let dup_of = Array.make n_orig (-1) in
  List.iter (fun (o, d) -> dup_of.(o) <- d) mapping;
  let orig_of = Hashtbl.create 16 in
  List.iter (fun (o, d) -> Hashtbl.replace orig_of d o) mapping;
  let entry_ops, before, edges = split_plan plan in
  (* all instrumentation goes into the duplicated code *)
  insert_before_ops f
    ~relabel:(fun l -> dup_of.(l))
    ~mk:(fun op -> Lir.Instrument op)
    before;
  insert_entry_ops f ~at:dup_of.(f.Lir.entry)
    ~mk:(fun op -> Lir.Instrument op)
    entry_ops;
  let backedge_ops, normal_edge_ops =
    List.partition (fun (e, _) -> List.mem e bedges) edges
  in
  List.iter
    (fun ((u, v), ops) ->
      ignore
        (Ir.Edit.split_edge f ~src:dup_of.(u) ~dst:dup_of.(v) ~role:Lir.Dup
           ~instrs:(List.map (fun op -> Lir.Instrument op) ops)))
    (group_edges normal_edge_ops);
  (* every backedge — in the checking code AND in the duplicated code —
     routes through one shared check: on a sample the next iteration runs
     in the duplicated code, otherwise in the checking code.  Routing the
     duplicated-code backedge through the check too means sample interval
     1 keeps execution in instrumented code permanently, so the Always
     trigger reproduces the perfect profile exactly.  Backedge-associated
     ops are attached to the transfer edge out of the duplicated code
     (section 2: "the instrumentation can be attached to the edge
     transferring control from the duplicated code to the checking
     code"). *)
  List.iter
    (fun (u, v) ->
      let du = dup_of.(u) and dv = dup_of.(v) in
      let c =
        Lir.add_block f
          {
            Lir.instrs = [||];
            term = Lir.Check { on_sample = dup_of.(v); fall = v };
            role = Lir.Check_block;
          }
      in
      let bu = Lir.block f u in
      Lir.set_block f u
        { bu with Lir.term = Ir.Edit.retarget_term bu.Lir.term ~from_:v ~to_:c };
      let ops =
        List.filter_map
          (fun (e, op) -> if e = (u, v) then Some (Lir.Instrument op) else None)
          backedge_ops
      in
      let target =
        if ops = [] then c
        else
          Lir.add_block f
            { Lir.instrs = Array.of_list ops; term = Lir.Goto c; role = Lir.Dup }
      in
      let bdu = Lir.block f du in
      Lir.set_block f du
        {
          bdu with
          Lir.term = Ir.Edit.retarget_term bdu.Lir.term ~from_:dv ~to_:target;
        })
    bedges;
  (* check on method entry *)
  let e =
    Lir.add_block f
      {
        Lir.instrs = [||];
        term = Lir.Check { on_sample = dup_of.(f.Lir.entry); fall = f.Lir.entry };
        role = Lir.Check_block;
      }
  in
  let f = { f with Lir.entry = e } in
  (f, dup_of, orig_of)

let full_dup spec f0 =
  let f, _, _ = full_dup_core spec f0 in
  Ir.Verify.check_exn f;
  mk_result f

(* ------------------------------------------------------------------ *)
(* Yieldpoint optimization (section 4.5)                               *)
(* ------------------------------------------------------------------ *)

let full_dup_yieldpoint_opt spec f0 =
  let f, _, _ = full_dup_core spec f0 in
  (* strip yieldpoints from the checking code (Orig and Check blocks);
     the duplicated code keeps its copies, and a finite sample interval
     keeps the distance between executed yieldpoints finite *)
  for l = 0 to Lir.num_blocks f - 1 do
    let b = Lir.block f l in
    match b.Lir.role with
    | Lir.Orig | Lir.Check_block ->
        Ir.Edit.filter_instrs f l (function
          | Lir.Yieldpoint _ -> false
          | _ -> true)
    | Lir.Dup | Lir.Dead -> ()
  done;
  Ir.Verify.check_exn f;
  mk_result f

(* ------------------------------------------------------------------ *)
(* Partial-Duplication (section 3.1)                                   *)
(* ------------------------------------------------------------------ *)

let partial_dup spec f0 =
  let f, _, orig_of = full_dup_core spec f0 in
  let n = Lir.num_blocks f in
  let is_dup l = (Lir.block f l).Lir.role = Lir.Dup in
  let is_instr l = is_dup l && Lir.is_instrumented_block (Lir.block f l) in
  let dup_succs l = List.filter is_dup (Ir.Cfg.succs f l) in
  let preds = Ir.Cfg.predecessors f in
  let dup_preds l = List.filter is_dup preds.(l) in
  (* forward reachability from instrumented nodes within the dup DAG *)
  let flood next seeds =
    let seen = Array.make n false in
    let rec go l =
      if not seen.(l) then begin
        seen.(l) <- true;
        List.iter go (next l)
      end
    in
    List.iter go seeds;
    seen
  in
  let instr_nodes =
    List.filter is_instr (List.init n Fun.id)
  in
  let after_instr = flood dup_succs instr_nodes in
  let before_instr = flood dup_preds instr_nodes in
  let is_top l = is_dup l && (not (is_instr l)) && not after_instr.(l) in
  let is_bottom l = is_dup l && (not (is_instr l)) && not before_instr.(l) in
  let removed l = is_top l || is_bottom l in
  (* the checking-code counterpart of a dup node; instrumented edge-op
     blocks have none and are resolved through their successor chain *)
  let rec checking_target l =
    match Hashtbl.find_opt orig_of l with
    | Some o -> o
    | None ->
        if is_dup l then
          match Ir.Cfg.succs f l with
          | [ s ] -> checking_target s
          | _ -> invalid_arg "Partial_dup: unresolvable dup block"
        else l
  in
  (* rule: checks branching to a removed node are themselves removed *)
  for l = 0 to n - 1 do
    let b = Lir.block f l in
    match b.Lir.term with
    | Lir.Check { on_sample; fall } when b.Lir.role <> Lir.Dead && removed on_sample ->
        Lir.set_block f l { b with Lir.term = Lir.Goto fall }
    | _ -> ()
  done;
  (* edges from kept dup nodes into bottom nodes return to checking code *)
  for l = 0 to n - 1 do
    if is_dup l && not (removed l) then begin
      let b = Lir.block f l in
      let term =
        Lir.map_term_labels
          (fun t -> if is_dup t && removed t then checking_target t else t)
          b.Lir.term
      in
      Lir.set_block f l { b with Lir.term }
    end
  done;
  (* edges top-node -> kept dup node get a check on the corresponding
     checking-code edge; several such additions on one checking edge chain *)
  let additions = Hashtbl.create 8 in
  (* (u, ct) -> sample targets *)
  for t = 0 to n - 1 do
    if is_top t then
      List.iter
        (fun s ->
          if not (removed s) then begin
            let u = checking_target t and ct = checking_target s in
            let key = (u, ct) in
            Hashtbl.replace additions key
              (s :: Option.value ~default:[] (Hashtbl.find_opt additions key))
          end)
        (dup_succs t)
  done;
  Hashtbl.iter
    (fun (u, ct) targets ->
      let first =
        List.fold_left
          (fun fall s ->
            Lir.add_block f
              {
                Lir.instrs = [||];
                term = Lir.Check { on_sample = s; fall };
                role = Lir.Check_block;
              })
          ct (List.rev targets)
      in
      let bu = Lir.block f u in
      Lir.set_block f u
        { bu with Lir.term = Ir.Edit.retarget_term bu.Lir.term ~from_:ct ~to_:first })
    additions;
  (* kill the removed nodes *)
  for l = 0 to n - 1 do
    if is_dup l && removed l then Lir.set_block f l Lir.dead_block
  done;
  ignore (Ir.Cfg.remove_unreachable f);
  Ir.Verify.check_exn f;
  mk_result f
