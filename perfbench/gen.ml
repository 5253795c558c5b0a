(* Seeded input generation.  Everything here is a pure function of the
   seed, so a run can be repeated exactly, and different seeds change
   which jobs run without changing how much work a run does. *)

(* A 64-bit LCG (Knuth's MMIX constants): reproducible everywhere,
   independent of Stdlib.Random's algorithm. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) 1L) }

let below r n =
  r.s <- Int64.(add (mul r.s 6364136223846793005L) 1442695040888963407L);
  Int64.(to_int (rem (shift_right_logical r.s 33) (of_int n)))

let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The option lists of the {!Serve.Fleet.jobs} mix, read off the mix. *)
let mix = lazy (Serve.Fleet.jobs ~seed:1 ~n:4000 ())
let values f = List.sort_uniq compare (List.map f (Lazy.force mix))

(* Every (variant, specs list) pair of the mix. *)
let pairs () =
  List.concat_map
    (fun v -> List.map (fun sp -> (v, sp)) (values (fun (j : Serve.Job.t) -> j.specs)))
    (values (fun (j : Serve.Job.t) -> j.variant))

(* The (benchmark, scale, trigger) strata, in a fixed order. *)
let strata () =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun scale ->
          List.map (fun trigger -> (bench, scale, trigger))
            (values (fun (j : Serve.Job.t) -> j.trigger)))
        (values (fun (j : Serve.Job.t) -> j.scale)))
    (values (fun (j : Serve.Job.t) -> j.bench))

let job (bench, scale, trigger) variant specs =
  {
    Serve.Job.bench;
    scale;
    variant;
    specs;
    trigger;
    engine = `Fast;
    recording = `Slots;
    poison = false;
  }

(** Every job {!serve_jobs} can draw, whatever the seed: each stratum
    with each variant and specs list. *)
let universe () =
  List.concat_map (fun st -> List.map (fun (v, sp) -> job st v sp) (pairs ())) (strata ())

(** [rounds] rounds of distinct jobs over the option lists of the
    {!Serve.Fleet.jobs} mix.  Each round holds one job per (benchmark,
    scale, trigger) stratum; the seed picks each job's variant and
    specs, walking a seeded order of all pairs per stratum, so no job
    repeats (a repeat would be a run-cache hit).  These three choices
    set most of a job's cost, so stratifying on them keeps the total
    cost and the latency distribution of a round nearly independent of
    the seed.  Each round comes in a seeded order. *)
let serve_jobs ~seed ~rounds =
  let pairs = pairs () in
  if rounds > List.length pairs then
    invalid_arg "Gen.serve_jobs: more rounds than distinct jobs per stratum";
  let r = rng seed in
  let strata = List.map (fun st -> (st, Array.of_list (shuffle r pairs))) (strata ()) in
  List.concat
    (List.init rounds (fun k ->
         shuffle r (List.map (fun (st, order) -> let v, sp = order.(k) in job st v sp) strata)))

(** The most rounds {!serve_jobs} can give. *)
let max_rounds () = List.length (pairs ())
