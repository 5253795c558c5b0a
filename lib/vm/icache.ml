(* Direct-mapped cache model: one tag per line, power-of-two geometry
   only, so a line number is a shift and its slot a mask.  The machine's
   i-cache is always [create ()]; the Fast engine compiles the default
   line size into its probes (Straight). *)
type t = {
  tags : int array;
  shift : int; (* log2 line_words *)
  mask : int; (* lines - 1 *)
  mutable miss_count : int;
}

let default_lines = 1024
let default_line_words = 8

let log2_pow2 what n =
  if n > 0 && n land (n - 1) = 0 then begin
    let k = ref 0 in
    while 1 lsl !k < n do
      incr k
    done;
    !k
  end
  else
    invalid_arg
      (Printf.sprintf "Icache.create: %s = %d is not a power of two" what n)

(* A literal, not [log2_pow2 ... default_line_words]: a value computed at
   module initialisation lives in the module block, so every run-time
   [Straight.line_of] would load it and shift by a register. *)
let default_shift = 3
let () =
  if 1 lsl default_shift <> default_line_words then
    failwith "Icache: default_shift does not match default_line_words"

let create ?(lines = default_lines) ?(line_words = default_line_words) () =
  let shift = log2_pow2 "line_words" line_words in
  ignore (log2_pow2 "lines" lines : int);
  { tags = Array.make lines (-1); shift; mask = lines - 1; miss_count = 0 }

(* Probe [addr]; true on a miss, which installs its line. *)
let access t addr =
  let line_no = addr lsr t.shift in
  let idx = line_no land t.mask in
  if t.tags.(idx) = line_no then false
  else begin
    t.tags.(idx) <- line_no;
    t.miss_count <- t.miss_count + 1;
    true
  end

let misses t = t.miss_count

(* Invalidate without rewriting history: every line becomes cold again
   but the miss count stands, so an injected flush perturbs only the
   future of a run. *)
let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
