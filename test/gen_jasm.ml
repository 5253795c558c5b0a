(* Random well-typed jasm program generator for property-based tests.

   Programs are guaranteed to terminate (loops are bounded counters with
   fresh names that random statements can never write, the static call
   graph is acyclic) and to be deterministic, so any two executions —
   baseline vs optimized, baseline vs instrumented, reference engine vs
   compiled engine — must print the same output and return the same
   checksum.

   The generated surface covers every instrumentation point of the
   framework: method entries and (nested) loop backedges carry checks;
   instance-field, static-field and array reads/writes are field-access
   instrumentation sites; static and virtual calls are call-edge sites;
   conditionals, switches and for-loops exercise CFG shapes (join
   points, multi-way branches) that duplication must get right.

   Safety invariants, maintained syntactically:
   - division/remainder is always by a non-zero constant;
   - array indices are masked with [& 7] against fixed-size-8 arrays;
   - object locals are initialized at declaration and never reassigned,
     so no null dereference;
   - every stored value is masked to 20 bits, so checksums stay small.

   Programs are generated as a small statement AST rather than flat
   strings so that counterexamples can be SHRUNK: the shrinker drops
   statements at any depth, hoists a nested block's statement over its
   wrapper, and removes whole helper methods once nothing references
   them.  Loop counters live in the wrapper text ([parts]), never in the
   shrinkable bodies, so every shrunk program still terminates. *)

open QCheck.Gen

(* ------------------------------------------------------------------ *)
(* Program AST (the unit of shrinking)                                 *)
(* ------------------------------------------------------------------ *)

(* [Compound] is any statement wrapping sub-blocks: rendering interleaves
   [parts] and [bodies] ([parts] has one more element than [bodies]).
   Everything needed for termination — loop headers, counter increments —
   lives in [parts], so bodies can shrink to empty safely. *)
type stmt =
  | Atom of string
  | Compound of { parts : string array; bodies : stmt list array }

type func_decl = {
  f_idx : int; (* Main.f<idx> *)
  f_cell : string; (* class of the local cell: "Cell" or "SubCell" *)
  f_body : stmt list;
  f_ret : string; (* return expression *)
}

type prog = { funcs : func_decl list; main_body : stmt list }

let rec render_stmt buf = function
  | Atom s -> Buffer.add_string buf s
  | Compound { parts; bodies } ->
      Array.iteri
        (fun i body ->
          Buffer.add_string buf parts.(i);
          render_body buf body)
        bodies;
      Buffer.add_string buf parts.(Array.length bodies)

and render_body buf body =
  List.iter
    (fun s ->
      render_stmt buf s;
      Buffer.add_char buf ' ')
    body

(* Cell instances are the virtual-dispatch and instance-field sites; a
   generated program may allocate a SubCell into a Cell local, making
   [get] a genuinely polymorphic call. *)
let helper_classes =
  {|class Cell {
  var v: int;
  var w: int;
  fun bump(d: int) { this.v = (this.v + d) & 1048575; }
  fun mix(): int { this.w = (this.w ^ ((this.v % 97) * 3)) & 1048575; return this.w; }
  fun get(): int { return (this.v + this.w) & 1048575; }
}
class SubCell extends Cell {
  fun get(): int { return (this.v ^ (this.w << 1)) & 1048575; }
}
class Gs {
  static var s0: int;
  static var s1: int;
}|}

let render_func fd =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "static fun f%d(a: int, b: int): int { var t: int = (a ^ b) & 65535; \
        var arr: int[] = new int[8]; var c: Cell = new %s; arr[0] = a & \
        1048575; arr[1] = b & 1048575; c.v = b & 255; "
       fd.f_idx fd.f_cell);
  render_body buf fd.f_body;
  Buffer.add_string buf (Printf.sprintf "return (%s) & 1048575; }" fd.f_ret);
  Buffer.contents buf

let render (p : prog) =
  let main = Buffer.create 512 in
  render_body main p.main_body;
  Printf.sprintf
    {|%s
class Main {
  %s
  static fun main(n: int): int {
    var acc: int = n;
    var marr: int[] = new int[8];
    var mc: Cell = new SubCell;
    var k: int = 0;
    while (k < 8) {
      %s
      acc = (acc + Main.f0(acc, k)) & 1048575;
      marr[k & 7] = acc;
      k = k + 1;
    }
    acc = (acc + mc.get() + marr[3] + Gs.s0 + Gs.s1) & 1048575;
    print(acc);
    return acc;
  }
}|}
    helper_classes
    (String.concat "\n  " (List.map render_func p.funcs))
    (Buffer.contents main)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  vars : string list; (* int locals *)
  arrays : string list; (* int[] locals, all of length 8 *)
  cells : string list; (* Cell locals, never null *)
  statics : string list; (* qualified static int fields *)
  funcs : int; (* callable Main.f0 .. Main.f(n-1) *)
}

let int_lit = map string_of_int (int_range (-99) 99)

let var ctx = oneofl ctx.vars

let rec expr ctx depth =
  if depth = 0 then oneof [ int_lit; var ctx ]
  else
    frequency
      [
        (2, int_lit);
        (3, var ctx);
        ( 2,
          match ctx.arrays with
          | [] -> var ctx
          | arrays ->
              let* a = oneofl arrays in
              let* i = expr ctx (depth - 1) in
              return (Printf.sprintf "%s[(%s) & 7]" a i) );
        ( 1,
          match ctx.arrays with
          | [] -> int_lit
          | arrays ->
              let* a = oneofl arrays in
              return (a ^ ".length") );
        ( 2,
          match ctx.cells with
          | [] -> var ctx
          | cells ->
              let* c = oneofl cells in
              let* access = oneofl [ ".v"; ".w"; ".get()"; ".mix()" ] in
              return (c ^ access) );
        ( 1,
          match ctx.statics with
          | [] -> int_lit
          | statics -> oneofl statics );
        ( 4,
          let* op = oneofl [ "+"; "-"; "*"; "&"; "^"; "|" ] in
          let* a = expr ctx (depth - 1) in
          let* b = expr ctx (depth - 1) in
          (* keep multiplication small to avoid overflow weirdness *)
          if op = "*" then
            return (Printf.sprintf "(((%s) %% 97) * ((%s) %% 97))" a b)
          else return (Printf.sprintf "((%s) %s (%s))" a op b) );
        ( 2,
          let* a = expr ctx (depth - 1) in
          let* k = int_range 1 9 in
          return (Printf.sprintf "((%s) / %d)" a k) );
        ( 2,
          let* a = expr ctx (depth - 1) in
          let* k = int_range 1 9 in
          return (Printf.sprintf "((%s) %% %d)" a k) );
        ( 1,
          let* a = expr ctx (depth - 1) in
          let* k = int_range 0 4 in
          let* op = oneofl [ "<<"; ">>" ] in
          return (Printf.sprintf "((%s) %s %d)" a op k) );
        ( 2,
          if ctx.funcs = 0 then var ctx
          else
            let* f = int_range 0 (ctx.funcs - 1) in
            let* a = expr ctx (depth - 1) in
            let* b = expr ctx (depth - 1) in
            return (Printf.sprintf "Main.f%d((%s), (%s))" f a b) );
      ]

let rec cond ctx depth =
  frequency
    [
      ( 5,
        let* op = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
        let* a = expr ctx depth in
        let* b = expr ctx depth in
        return (Printf.sprintf "(%s) %s (%s)" a op b) );
      ( 1,
        if depth <= 0 then return "0 == 0"
        else
          let* op = oneofl [ "&&"; "||" ] in
          let* a = cond ctx (depth - 1) in
          let* b = cond ctx (depth - 1) in
          return (Printf.sprintf "(%s) %s (%s)" a op b) );
      ( 1,
        if depth <= 0 then return "1 != 0"
        else
          let* a = cond ctx (depth - 1) in
          return (Printf.sprintf "!(%s)" a) );
    ]

(* statements write only to int locals, arrays, fields and static fields;
   fresh loop counters (never exposed in [ctx.vars], and living in the
   wrapper text rather than the shrinkable bodies) guarantee
   termination *)
let rec stmts ctx ~fresh ~depth ~budget =
  if budget <= 0 then return []
  else
    let* s, fresh' = stmt ctx ~fresh ~depth in
    let* rest = stmts ctx ~fresh:fresh' ~depth ~budget:(budget - 1) in
    return (s :: rest)

and stmt ctx ~fresh ~depth =
  frequency
    [
      ( 4,
        let* v = var ctx in
        let* e = expr ctx 2 in
        return (Atom (Printf.sprintf "%s = (%s) & 1048575;" v e), fresh) );
      ( 2,
        match ctx.arrays with
        | [] ->
            let* v = var ctx in
            return (Atom (Printf.sprintf "%s = %s + 1;" v v), fresh)
        | arrays ->
            let* a = oneofl arrays in
            let* i = expr ctx 1 in
            let* e = expr ctx 2 in
            return
              ( Atom
                  (Printf.sprintf "%s[(%s) & 7] = (%s) & 1048575;" a i e),
                fresh ) );
      ( 2,
        match ctx.cells with
        | [] ->
            let* v = var ctx in
            return (Atom (Printf.sprintf "%s = %s ^ 5;" v v), fresh)
        | cells ->
            let* c = oneofl cells in
            let* e = expr ctx 1 in
            let* f =
              oneofl
                [
                  Printf.sprintf "%s.v = (%s) & 1048575;";
                  Printf.sprintf "%s.w = (%s) & 1048575;";
                  Printf.sprintf "%s.bump((%s) & 255);";
                ]
            in
            return (Atom (f c e), fresh) );
      ( 1,
        match ctx.statics with
        | [] ->
            let* v = var ctx in
            return (Atom (Printf.sprintf "%s = %s | 2;" v v), fresh)
        | statics ->
            let* s = oneofl statics in
            let* e = expr ctx 1 in
            return (Atom (Printf.sprintf "%s = (%s) & 1048575;" s e), fresh) );
      ( 2,
        let* c = cond ctx 1 in
        if depth <= 0 then
          let* v = var ctx in
          return
            (Atom (Printf.sprintf "if (%s) { %s = %s + 1; }" c v v), fresh)
        else
          let* then_ =
            stmts ctx ~fresh:(fresh + 100) ~depth:(depth - 1) ~budget:2
          in
          let* else_ =
            stmts ctx ~fresh:(fresh + 200) ~depth:(depth - 1) ~budget:2
          in
          return
            ( Compound
                {
                  parts =
                    [| Printf.sprintf "if (%s) { " c; " } else { "; " }" |];
                  bodies = [| then_; else_ |];
                },
              fresh ) );
      ( 2,
        (* while loop on a fresh bounded counter: a (possibly nested)
           backedge with checks under the duplicating transforms *)
        if depth <= 0 then
          let* v = var ctx in
          return (Atom (Printf.sprintf "%s = %s ^ 3;" v v), fresh)
        else
          let i = Printf.sprintf "i%d" fresh in
          let* bound = int_range 1 6 in
          let* body =
            stmts ctx ~fresh:(fresh + 1) ~depth:(depth - 1) ~budget:2
          in
          return
            ( Compound
                {
                  parts =
                    [|
                      Printf.sprintf "var %s: int = 0; while (%s < %d) { " i i
                        bound;
                      Printf.sprintf "%s = %s + 1; }" i i;
                    |];
                  bodies = [| body |];
                },
              fresh + 1 ) );
      ( 1,
        (* for loop: same backedge shape, different frontend path *)
        if depth <= 0 then
          let* v = var ctx in
          return (Atom (Printf.sprintf "%s = %s + 2;" v v), fresh)
        else
          let i = Printf.sprintf "i%d" fresh in
          let* bound = int_range 1 5 in
          let* body =
            stmts ctx ~fresh:(fresh + 1) ~depth:(depth - 1) ~budget:2
          in
          return
            ( Compound
                {
                  parts =
                    [|
                      Printf.sprintf
                        "for (var %s: int = 0; %s < %d; %s = %s + 1) { " i i
                        bound i i;
                      "}";
                    |];
                  bodies = [| body |];
                },
              fresh + 1 ) );
      ( 1,
        (* switch: multi-way branch, no fallthrough *)
        if depth <= 0 then
          let* v = var ctx in
          return (Atom (Printf.sprintf "%s = %s - 1;" v v), fresh)
        else
          let* e = expr ctx 1 in
          let* c0 = stmts ctx ~fresh:(fresh + 300) ~depth:0 ~budget:1 in
          let* c1 = stmts ctx ~fresh:(fresh + 400) ~depth:0 ~budget:1 in
          let* d = stmts ctx ~fresh:(fresh + 500) ~depth:0 ~budget:1 in
          return
            ( Compound
                {
                  parts =
                    [|
                      Printf.sprintf "switch ((%s) & 3) { case 0: { " e;
                      " } case 1: { ";
                      " } default: { ";
                      " } }";
                    |];
                  bodies = [| c0; c1; d |];
                },
              fresh ) );
      ( 1,
        let* e = expr ctx 1 in
        return (Atom (Printf.sprintf "print((%s) & 255);" e), fresh) );
    ]

let statics = [ "Gs.s0"; "Gs.s1" ]

let func_decl idx n_callable =
  (* f_idx may call f0 .. f_{idx-1}: the call graph is acyclic *)
  let ctx =
    {
      vars = [ "a"; "b"; "t" ];
      arrays = [ "arr" ];
      cells = [ "c" ];
      statics;
      funcs = min idx n_callable;
    }
  in
  let* cell_class = oneofl [ "Cell"; "SubCell" ] in
  let* body = stmts ctx ~fresh:0 ~depth:3 ~budget:4 in
  let* ret = expr ctx 2 in
  return { f_idx = idx; f_cell = cell_class; f_body = body; f_ret = ret }

let program =
  let* n_funcs = int_range 1 4 in
  let* funcs = flatten_l (List.init n_funcs (fun i -> func_decl i n_funcs)) in
  (* "k" is main's loop counter: random statements must never write
     it, so it is not exposed as a variable at all *)
  let main_ctx =
    {
      vars = [ "acc" ];
      arrays = [ "marr" ];
      cells = [ "mc" ];
      statics;
      funcs = n_funcs;
    }
  in
  let* main_body = stmts main_ctx ~fresh:1000 ~depth:3 ~budget:5 in
  return { funcs; main_body }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Candidates for one statement: hoist any nested statement over the
   wrapper, or keep the wrapper with one of its bodies shrunk. *)
let rec shrink_stmt s yield =
  match s with
  | Atom _ -> ()
  | Compound { parts; bodies } ->
      Array.iter (fun body -> List.iter yield body) bodies;
      Array.iteri
        (fun i body ->
          shrink_body body (fun body' ->
              let bodies' = Array.copy bodies in
              bodies'.(i) <- body';
              yield (Compound { parts; bodies = bodies' })))
        bodies

(* Candidates for a statement list: drop any one element, or shrink any
   one element in place. *)
and shrink_body l yield =
  let rec go pre = function
    | [] -> ()
    | x :: rest ->
        yield (List.rev_append pre rest);
        shrink_stmt x (fun x' -> yield (List.rev_append pre (x' :: rest)));
        go (x :: pre) rest
  in
  go [] l

let replace_func (p : prog) fd' =
  {
    p with
    funcs =
      List.map (fun g -> if g.f_idx = fd'.f_idx then fd' else g) p.funcs;
  }

(* Whole-program candidates, most aggressive first: drop an unreferenced
   helper method entirely (main always calls f0, so only f1.. qualify —
   checked against the rendered remainder, which covers calls from other
   helpers' bodies and return expressions), then statement-level
   shrinking of main and of each helper, then collapsing a helper's
   return expression. *)
let shrink_prog (p : prog) yield =
  List.iter
    (fun fd ->
      if fd.f_idx > 0 then begin
        let p' =
          { p with funcs = List.filter (fun g -> g.f_idx <> fd.f_idx) p.funcs }
        in
        if not (contains (render p') (Printf.sprintf "Main.f%d(" fd.f_idx))
        then yield p'
      end)
    p.funcs;
  shrink_body p.main_body (fun mb -> yield { p with main_body = mb });
  List.iter
    (fun fd ->
      shrink_body fd.f_body (fun b -> yield (replace_func p { fd with f_body = b }));
      if fd.f_ret <> "0" then yield (replace_func p { fd with f_ret = "0" }))
    p.funcs

let arbitrary_program = QCheck.make ~print:render ~shrink:shrink_prog program

(* ------------------------------------------------------------------ *)
(* Call-path programs                                                  *)
(* ------------------------------------------------------------------ *)

(* Programs aimed at the VM's call words rather than at instrumentation
   points: static and virtual calls of every arity 0 to [max_arity]
   (register and immediate arguments), callees with different register
   counts, so that a reused stack slot changes method and register-file
   size between activations, locals declared without an initialiser
   (they read as 0, so a callee frame whose registers are not all zeroed
   shows in the checksum), and static and virtual recursion deep enough
   to grow a thread's stack several times.  Terminating by construction:
   a callee only calls callees of lower arity, and recursion counts a
   depth argument down to 0. *)

let max_arity = 6

let term vars = oneof [ oneofl vars; map string_of_int (int_range (-9) 99) ]

let call_with vars (f, arity) =
  let* args = flatten_l (List.init arity (fun _ -> term vars)) in
  return (Printf.sprintf "%s(%s)" f (String.concat ", " args))

(* [kw]fun [name](p0..p(k-1)): uninitialised locals first (the registers
   right after the parameters), then initialised ones, then a return
   that reads every local and calls one of [lower] *)
let callee_decl ~kw ~name ~k ~lower =
  let ps = List.init k (Printf.sprintf "p%d") in
  let* nu = int_range 0 2 in
  let* nl = int_range 0 6 in
  let us = List.init nu (Printf.sprintf "u%d") in
  let rec locals j vars acc =
    if j = nl then return (List.rev acc, vars)
    else
      let* a = term vars in
      let* b = term vars in
      let* op = oneofl [ "+"; "^"; "-"; "&" ] in
      let v = Printf.sprintf "l%d" j in
      locals (j + 1) (v :: vars)
        (Printf.sprintf "var %s: int = ((%s) %s (%s)) & 65535; " v a op b
        :: acc)
  in
  let* decls, vars = locals 0 ("1" :: ps) [] in
  let* call =
    match lower with [] -> return "0" | _ -> oneofl lower >>= call_with vars
  in
  return
    (Printf.sprintf "%sfun %s(%s): int { %s%sreturn (%s + %s) & 1048575; }" kw
       name
       (String.concat ", " (List.map (fun p -> p ^ ": int") ps))
       (String.concat "" (List.map (fun u -> "var " ^ u ^ ": int; ") us))
       (String.concat "" decls)
       (String.concat " + " (vars @ us))
       call)

let statics_below k =
  List.init k (fun j -> (Printf.sprintf "Main.s%d" j, j))

let methods_below k = List.init k (fun j -> (Printf.sprintf "this.m%d" j, j))

let call_program =
  let arities = List.init (max_arity + 1) Fun.id in
  let* statics =
    flatten_l
      (List.map
         (fun k ->
           callee_decl ~kw:"static " ~name:(Printf.sprintf "s%d" k) ~k
             ~lower:(statics_below k))
         arities)
  in
  let virtuals =
    flatten_l
      (List.map
         (fun k ->
           callee_decl ~kw:"" ~name:(Printf.sprintf "m%d" k) ~k
             ~lower:(methods_below k @ statics_below k))
         arities)
  in
  let* ms_a = virtuals in
  let* ms_b = virtuals in
  (* C overrides only some of A's methods *)
  let* keep_c = flatten_l (List.map (fun _ -> bool) arities) in
  let* ms_c = virtuals in
  let ms_c = List.filteri (fun i _ -> List.nth keep_c i) ms_c in
  let* depth = int_range 40 300 in
  let* vdepth = int_range 40 300 in
  let* rec_k = int_range 0 2 in
  let main_call =
    let* virt = bool in
    let* k = int_range 0 max_arity in
    call_with [ "i"; "(acc & 255)" ]
      (if virt then (Printf.sprintf "o.m%d" k, k) else (Printf.sprintf "Main.s%d" k, k))
  in
  let main_stmts n =
    let* calls = flatten_l (List.init n (fun _ -> main_call)) in
    return
      (String.concat " "
         (List.map (Printf.sprintf "acc = (acc + %s) & 1048575;") calls))
  in
  let* nloop = int_range 3 8 in
  let* loop_body = main_stmts nloop in
  let* nafter = int_range 1 4 in
  let* after = main_stmts nafter in
  let* rec_call = call_with [ "d"; "y" ] (Printf.sprintf "Main.s%d" rec_k, rec_k) in
  return
    (Printf.sprintf
       {|class A {
  var x: int;
  %s
  fun vrec(d: int, x: int): int { if (d <= 0) { return (x + this.x) & 1023; } return (this.vrec(d - 1, x + 1) + 1) & 1048575; }
}
class B extends A {
  %s
  fun vrec(d: int, x: int): int { var u: int; var t: int = (x ^ d) & 255; if (d <= 0) { return (t + u) & 1023; } return (this.vrec(d - 1, t) + u + 2) & 1048575; }
}
class C extends A {
  %s
}
class Main {
  %s
  static fun rec(d: int, x: int): int {
    if (d <= 0) { return x & 1023; }
    var y: int = ((x * 7) + d) & 1023;
    return (Main.rec(d - 1, y) + %s) & 1048575;
  }
  static fun main(n: int): int {
    var acc: int = n;
    var a: A = new A;
    var b: A = new B;
    var c: A = new C;
    a.x = 3;
    b.x = 5;
    c.x = 7;
    var o: A = a;
    var i: int = 0;
    while (i < 9) {
      o = a;
      if ((i %% 3) == 1) { o = b; }
      if ((i %% 3) == 2) { o = c; }
      %s
      i = i + 1;
    }
    acc = (acc + Main.rec(%d, acc)) & 1048575;
    acc = (acc + b.vrec(%d, acc) + c.vrec(%d, acc)) & 1048575;
    %s
    print(acc);
    return acc;
  }
}|}
       (String.concat "\n  " ms_a)
       (String.concat "\n  " ms_b)
       (String.concat "\n  " ms_c)
       (String.concat "\n  " statics)
       rec_call loop_body depth vdepth vdepth after)
