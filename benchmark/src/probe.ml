(* Machine-speed probe: every time a workload reports is read at one
   fixed machine speed.

   The benchmark shares a host with other tenants, whose load slows
   every workload by up to a third, for seconds to minutes at a time.
   Medians inside a run cannot remove a slowdown that lasts the whole
   run. So while a workload runs, a timer interrupts it every
   [interval_s] and runs one slice of fixed reference work, and records
   how long the slice took. A span's time is then its own time, less
   the slices that ran inside it, divided by the slowdown that the
   slices around it saw: their mean time over [nominal_s].

   The slice is random lookups in a chained hash table of 10 MB, kept in
   Bigarrays so that it adds nothing to the OCaml heap the workloads
   measure and allocates nothing. Lookups are independent of each
   other; each hashes its key with the runtime's [Hashtbl.hash] and
   follows a bucket, a chain and a payload: pointer-chasing work with
   some arithmetic, like the placer's own. README.md ("The probe")
   gives the measurements that chose it: the slice's time follows the
   workloads' slowdowns better than a register-only loop, one long
   pointer chase, a tree or a small table does. *)

open Bigarray

let interval_s = 0.004

(* A slice's time at the speed all reported times are read at. It is
   about the median slice on the machine the bounds were measured on
   (see README.md); changing it rescales every reported time. *)
let nominal_s = 1.45e-4

(* ------------------------------------------------------------------ *)
(* The reference work                                                  *)
(* ------------------------------------------------------------------ *)

let bits = 18
let size = 1 lsl bits
let lookups = 800

(* Keys [i * 7919]; a node is (key, next node or -1, payload index). *)
let key i = i * 7919
let bucket k = Hashtbl.hash k land (size - 1)

let heads = Array1.create int c_layout size
let nodes = Array1.create int c_layout (3 * size)
let payload = Array1.create int c_layout size

let () =
  Array1.fill heads (-1);
  let rng = Random.State.make [| 5 |] in
  for i = 0 to size - 1 do
    let b = bucket (key i) in
    nodes.{3 * i} <- key i;
    nodes.{(3 * i) + 1} <- heads.{b};
    nodes.{(3 * i) + 2} <- Random.State.int rng size;
    heads.{b} <- i;
    payload.{i} <- i
  done

let lcg = ref 12345

let slice () =
  let acc = ref 0 in
  for _ = 1 to lookups do
    lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
    let k = key (!lcg land (size - 1)) in
    let node = ref (Array1.unsafe_get heads (bucket k)) in
    while !node >= 0 && Array1.unsafe_get nodes (3 * !node) <> k do
      node := Array1.unsafe_get nodes ((3 * !node) + 1)
    done;
    if !node >= 0 then
      acc := !acc + Array1.unsafe_get payload (Array1.unsafe_get nodes ((3 * !node) + 2))
  done;
  ignore (Sys.opaque_identity !acc)

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

let epoch = Clock.now ()

(* Seconds since the process started, on {!Clock}. *)
let now () = Clock.seconds_between epoch (Clock.now ())

(* Slice start times, in order, and the running sum of their
   durations. 2^16 slices cover 4 minutes; past that the timer runs no
   more slices. *)
let capacity = 1 lsl 16
let starts = Array1.create float64 c_layout capacity
let total = Array1.create float64 c_layout capacity
let count = ref 0

(* Allocates nothing, so that the slices do not move the workload's
   collections: the heaps measured would otherwise differ between runs
   of the same work. *)
let record (_ : int) =
  let n = !count in
  if n < capacity then begin
    let t0 = Clock.now () in
    slice ();
    let t1 = Clock.now () in
    let dt = Int64.to_float (Int64.sub t1 t0) *. 1e-9 in
    starts.{n} <- Int64.to_float (Int64.sub t0 epoch) *. 1e-9;
    total.{n} <- (if n = 0 then dt else total.{n - 1} +. dt);
    count := n + 1
  end

let timer v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

(* Runs [f] with the probe on, and turns it off on every way out. *)
let run f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle record) in
  timer interval_s;
  Fun.protect f ~finally:(fun () ->
      timer 0.0;
      Sys.set_signal Sys.sigalrm previous)

(* The first slice, among the first [n], that starts at or after [t]. *)
let first_from n t =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if starts.{mid} < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Summed duration of slices [lo, hi). *)
let between lo hi =
  if hi <= lo then 0.0 else total.{hi - 1} -. (if lo = 0 then 0.0 else total.{lo - 1})

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* [net] is the span's time less the slices that ran inside it. A slice
   runs whole between two safe points of the code it interrupts, so it
   lies wholly inside a span or wholly outside. *)
type span = { start : float; stop : float; net : float }

let span start stop =
  let n = !count in
  { start; stop; net = stop -. start -. between (first_from n start) (first_from n stop) }

let time f =
  let t0 = now () in
  let r = f () in
  (r, span t0 (now ()))

(* The slices within [margin] of the span, widened to the [least]
   nearest when there are fewer; 1 without any. *)
let margin = 0.05
let least = 16

let slowdown s =
  let n = !count in
  if n = 0 then 1.0
  else begin
    let lo = ref (first_from n (s.start -. margin)) and hi = ref (first_from n (s.stop +. margin)) in
    while !hi - !lo < least && (!lo > 0 || !hi < n) do
      if !lo > 0 then decr lo;
      if !hi < n then incr hi
    done;
    between !lo !hi /. float_of_int (!hi - !lo) /. nominal_s
  end

(* The span's time at nominal speed. *)
let seconds s = s.net /. slowdown s

(* Slices so far, and the median slowdown they saw. *)
let slices () = !count

let median_slowdown () =
  let n = !count in
  if n = 0 then 1.0
  else begin
    let a = Array.init n (fun i -> between i (i + 1)) in
    Array.sort Float.compare a;
    a.(n / 2) /. nominal_s
  end
