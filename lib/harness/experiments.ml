(* Run-everything driver used by bin/isf and bench/main. *)

type which = T1 | T2 | T3 | T4 | T5 | F7 | F8 | Adaptive

(* [Adaptive] is deliberately NOT in [all]: `table all` must stay
   byte-identical to its pre-adaptive output (the loop-off guarantee),
   and the adaptive experiment is opt-in (`table adaptive`). *)
let all = [ T1; T2; T3; T4; T5; F7; F8 ]

let name = function
  | T1 -> "table1"
  | T2 -> "table2"
  | T3 -> "table3"
  | T4 -> "table4"
  | T5 -> "table5"
  | F7 -> "figure7"
  | F8 -> "figure8"
  | Adaptive -> "adaptive"

let of_name = function
  | "table1" | "1" -> T1
  | "table2" | "2" -> T2
  | "table3" | "3" -> T3
  | "table4" | "4" -> T4
  | "table5" | "5" -> T5
  | "figure7" | "7" -> F7
  | "figure8" | "8" -> F8
  | "adaptive" -> Adaptive
  | s -> invalid_arg ("unknown experiment: " ^ s)

(* Print one experiment; the returned failures are the cells that
   rendered ERR (empty on a healthy run), so callers can exit non-zero
   without parsing output. *)
let run_one ?config ?scale ?jobs ?measure_compile ?budget which =
  match which with
  | T1 ->
      let r = Table1.run ?config ?scale ?jobs () in
      Table1.print r;
      Table1.failures r
  | T2 ->
      let r = Table2.run ?config ?scale ?jobs ?measure_compile () in
      Table2.print r;
      Table2.failures r
  | T3 ->
      let r = Table3.run ?config ?scale ?jobs () in
      Table3.print r;
      Table3.failures r
  | T4 ->
      let r = Table4.run ?config ?scale ?jobs () in
      Table4.print r;
      r.Table4.failures
  | T5 ->
      (* more samples are needed for stable trigger-accuracy comparisons *)
      let scale = match scale with None -> Some 4 | s -> s in
      let r = Table5.run ?config ?scale ?jobs () in
      Table5.print r;
      Table5.failures r
  | F7 ->
      (* scale/interval chosen so the sample count matches the paper's
         run length (~10^3-10^4 samples); see EXPERIMENTS.md *)
      let scale = match scale with None -> Some 4 | s -> s in
      let d = Figure7.run ?config ?scale ?jobs ~interval:100 () in
      Figure7.print d;
      d.Figure7.failures
  | F8 ->
      let d = Figure8.run ?config ?scale ?jobs () in
      Figure8.print d;
      d.Figure8.failures
  | Adaptive ->
      let r = Table_adaptive.run ?config ?scale ?jobs ?budget () in
      Table_adaptive.print r;
      Table_adaptive.failures r

(* Every measurement the drivers above will request, as pure data for
   the global scheduler (Schedule).  T5/F7 get the same scale-4 /
   interval-100 treatment [run_one] applies. *)
let requests ?scale () =
  let scale45 = match scale with None -> Some 4 | s -> s in
  Table1.requests ?scale ()
  @ Table2.requests ?scale ()
  @ Table3.requests ?scale ()
  @ Table4.requests ?scale ()
  @ Table5.requests ?scale:scale45 ()
  @ Figure7.requests ?scale:scale45 ~interval:100 ()
  @ Figure8.requests ?scale ()

(* Deduplicate and execute the full cell set up front; the drivers then
   find every measurement already published in the run cache, so their
   output is byte-identical to an unscheduled run.  Skipped when a
   checkpoint resume already holds finished cells — recomputing them
   would defeat the resume. *)
let prewarm ?config ?scale ?jobs () =
  if Robust.checkpointed_cells () = 0 then
    Schedule.prewarm ?config ?jobs (requests ?scale ())

let run_all ?config ?scale ?jobs ?measure_compile () =
  prewarm ?config ?scale ?jobs ();
  List.concat_map
    (fun w ->
      let fails = run_one ?config ?scale ?jobs ?measure_compile w in
      print_newline ();
      fails)
    all

(* Run every experiment, keep the data, and check it against the shapes
   recorded in EXPERIMENTS.md (see Shapes).  Returns [true] when every
   shape reproduces AND no cell failed — an ERR cell poisons its shape
   inputs to NaN, but an injected fault must fail the gate even when the
   surviving cells happen to satisfy every claim.  [measure_compile]
   defaults to [false] here so the full output is deterministic —
   byte-identical across runs and across VM engines — and therefore
   diffable; only the Table 2 compile column is affected (printed "-"). *)
let run_gated ?config ?scale ?jobs ?(measure_compile = false) () =
  prewarm ?config ?scale ?jobs ();
  let show print tbl =
    print tbl;
    print_newline ();
    tbl
  in
  let t1 = show Table1.print (Table1.run ?config ?scale ?jobs ()) in
  let t2 =
    show Table2.print (Table2.run ?config ?scale ?jobs ~measure_compile ())
  in
  let t3 = show Table3.print (Table3.run ?config ?scale ?jobs ()) in
  let t4 = show Table4.print (Table4.run ?config ?scale ?jobs ()) in
  let scale45 = match scale with None -> Some 4 | s -> s in
  let t5 = show Table5.print (Table5.run ?config ?scale:scale45 ?jobs ()) in
  let f7 =
    show Figure7.print
      (Figure7.run ?config ?scale:scale45 ?jobs ~interval:100 ())
  in
  let f8 = show Figure8.print (Figure8.run ?config ?scale ?jobs ()) in
  let groups =
    [
      ("table1", Shapes.table1 t1);
      ("table2", Shapes.table2 t2);
      ("table3", Shapes.table3 ~t1 ~t2 t3);
      ("table4", Shapes.table4 t4);
      ("table5", Shapes.table5 t5);
      ("figure7", Shapes.figure7 f7);
      ("figure8", Shapes.figure8 ~t2 f8);
    ]
  in
  print_string (Shapes.render groups);
  let failures =
    Table1.failures t1 @ Table2.failures t2 @ Table3.failures t3
    @ t4.Table4.failures @ Table5.failures t5 @ f7.Figure7.failures
    @ f8.Figure8.failures
  in
  if failures <> [] then
    Printf.printf "%d experiment cell(s) failed (see reports above)\n"
      (List.length failures);
  Shapes.all_pass groups && failures = []
