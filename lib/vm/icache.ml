type t = {
  tags : int array;
  line_words : int;
  shift : int; (* log2 line_words when a power of two, else -1 *)
  mask : int; (* lines - 1 when a power of two, else -1 *)
  mutable miss_count : int;
  mutable access_count : int;
}

let log2_pow2 n =
  if n > 0 && n land (n - 1) = 0 then begin
    let k = ref 0 in
    while 1 lsl !k < n do
      incr k
    done;
    Some !k
  end
  else None

let create ?(lines = 1024) ?(line_words = 8) () =
  {
    tags = Array.make lines (-1);
    line_words;
    shift = (match log2_pow2 line_words with Some k -> k | None -> -1);
    mask = (if log2_pow2 lines <> None then lines - 1 else -1);
    miss_count = 0;
    access_count = 0;
  }

(* Addresses are non-negative, so the shift/mask fast path (taken for the
   default power-of-two geometries) computes exactly the same line number
   and index as the division/modulo slow path. *)
let access t addr =
  t.access_count <- t.access_count + 1;
  let line_no =
    if t.shift >= 0 then addr lsr t.shift else addr / t.line_words
  in
  let idx =
    if t.mask >= 0 then line_no land t.mask
    else line_no mod Array.length t.tags
  in
  if t.tags.(idx) = line_no then false
  else begin
    t.tags.(idx) <- line_no;
    t.miss_count <- t.miss_count + 1;
    true
  end

let misses t = t.miss_count
let accesses t = t.access_count

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.miss_count <- 0;
  t.access_count <- 0

(* Invalidate without rewriting history: every line becomes cold again
   but the miss/access counts stand, so an injected flush perturbs only
   the future of a run. *)
let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
