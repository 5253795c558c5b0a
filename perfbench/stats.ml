(* Order statistics for the benchmark's reported timings. *)

let sorted xs = List.sort Float.compare xs

(** Median (mean of the two middle values for an even count). *)
let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank [p]-th percentile, refused ([None]) unless at least
    10 samples lie strictly beyond its rank: a tail percentile read off
    fewer samples than that is mostly noise. *)
let percentile ~p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 || p <= 0.0 || p >= 100.0 then None
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    let k = max 0 k in
    if n - 1 - k >= 10 then Some a.(k) else None
