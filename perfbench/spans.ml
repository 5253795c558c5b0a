(* Span recording for the traced run.  Spans are taken only around the
   benchmark's own calls into each layer's public functions; nothing
   inside the program is instrumented.  Each domain appends to its own
   buffer (no shared writes while measuring); the buffers are read once,
   after the traced phase. *)

type span = {
  id : int;  (** unique within its domain's buffer *)
  parent : int;  (** id of the enclosing span, or -1 for a root *)
  name : string;
  start : float;
  stop : float;
}

type buffer = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  counts : (string, float) Hashtbl.t;
}

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let new_buffer () =
  let b = { spans = []; stack = []; next = 0; counts = Hashtbl.create 16 } in
  Mutex.protect registry_lock (fun () -> registry := b :: !registry);
  b

let key = Domain.DLS.new_key new_buffer
let now = Unix.gettimeofday

let with_span name f =
  let b = Domain.DLS.get key in
  let id = b.next in
  b.next <- id + 1;
  let parent = match b.stack with p :: _ -> p | [] -> -1 in
  b.stack <- id :: b.stack;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      let stop = now () in
      b.stack <- List.tl b.stack;
      b.spans <- { id; parent; name; start; stop } :: b.spans)

let count name n =
  let b = Domain.DLS.get key in
  let c = Option.value ~default:0.0 (Hashtbl.find_opt b.counts name) in
  Hashtbl.replace b.counts name (c +. n)

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun b ->
          b.spans <- [];
          b.stack <- [];
          Hashtbl.reset b.counts)
        !registry)

(** Cost of recording one span, in seconds: the mean over 100,000 empty
    spans recorded into this domain's buffer.  Clears every buffer, so
    call it before the traced phase. *)
let span_cost () =
  let n = 100_000 in
  let t0 = now () in
  for _ = 1 to n do
    with_span "calibrate" ignore
  done;
  let c = (now () -. t0) /. float_of_int n in
  reset ();
  c

(** One span list per domain buffer that recorded anything. *)
let buffers () =
  Mutex.protect registry_lock (fun () ->
      List.filter_map
        (fun b -> if b.spans = [] then None else Some b.spans)
        !registry)

let counts () =
  let tot = Hashtbl.create 16 in
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun b ->
          Hashtbl.iter
            (fun k v ->
              Hashtbl.replace tot k
                (v +. Option.value ~default:0.0 (Hashtbl.find_opt tot k)))
            b.counts)
        !registry);
  tot

(* Length of the union of intervals. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) when s <= ce -> (total, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (total +. (ce -. cs), Some (s, e)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (s, e) -> total +. (e -. s)

(** Self time of every span of one buffer: its duration minus the part
    of it that its child spans cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.stop -. s.start -. covered kids))
    spans

(** Self time summed by span name, over every buffer. *)
let self_by_name bufs =
  let tot = Hashtbl.create 32 in
  List.iter
    (fun spans ->
      List.iter
        (fun (s, self) ->
          Hashtbl.replace tot s.name
            (self +. Option.value ~default:0.0 (Hashtbl.find_opt tot s.name)))
        (self_times spans))
    bufs;
  tot

(** Time between [t0] and [t1] that no root span of a buffer covers,
    summed over the buffers that recorded a root span in that window
    (one per domain that worked in it). *)
let unattributed ~t0 ~t1 bufs =
  List.fold_left
    (fun acc spans ->
      let roots =
        List.filter_map
          (fun s ->
            if s.parent < 0 && s.stop > t0 && s.start < t1 then
              Some (Float.max s.start t0, Float.min s.stop t1)
            else None)
          spans
      in
      if roots = [] then acc else acc +. (t1 -. t0 -. covered roots))
    0.0 bufs

(** What recording the spans of [bufs] added to a traced phase of
    [wall] seconds, as a share of the phase without them: spans
    recorded times [span_cost]. *)
let overhead_share ~span_cost ~wall bufs =
  let added =
    span_cost *. float_of_int (List.fold_left (fun n l -> n + List.length l) 0 bufs)
  in
  added /. (wall -. added)
