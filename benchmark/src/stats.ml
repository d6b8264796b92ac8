(* Order statistics, set-up timing, seeded shuffling and heap
   measurement, shared by the workloads. *)

let median a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let sum a = Array.fold_left ( +. ) 0.0 a
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Set-up timing. The set-up runs once to make the inputs, then again
   before every timed pass with its result dropped, so the samples span
   the whole run and a few seconds of load from elsewhere on the
   machine move only some of them. Each starts from a full major
   collection, so no sample pays for the previous one's garbage. The
   set-up time is the median sample, at nominal speed. *)
type setup = { redo : unit -> unit; since : float; mutable samples : float list }

let setup f =
  let since = Probe.now () in
  (f (), { redo = (fun () -> ignore (f ())); since; samples = [] })

let setup_s s = median (Array.of_list s.samples)

(* [pass 0] is a warm-up with the probe off. Workloads check their
   outputs and read the heap peak on it and do not time it: the probe's
   interrupts shift the minor collections a little, and with them the
   peak. Then, with the probe on, passes 1, 2, ... run while the next
   one, if it takes as long as the longest timed one so far, ends
   within [seconds] of the set-up; at least [least]. So a run takes
   about [seconds] however long its passes are. Before each timed pass
   the set-up is sampled at least once, and again while that took
   under 0.05 s, at most ten times. Returns the number of passes, the
   warm-up included. *)
let passes ?(least = 1) ~seconds setup pass =
  pass 0;
  let longest = ref 0.0 and n = ref 1 in
  Probe.run (fun () ->
      while !n <= least || Probe.now () -. setup.since +. !longest <= seconds do
        let t0 = Probe.now () and k = ref 0 in
        while !k = 0 || (Probe.now () -. t0 < 0.05 && !k < 10) do
          Gc.full_major ();
          let (), s = Probe.time setup.redo in
          setup.samples <- Probe.seconds s :: setup.samples;
          incr k
        done;
        pass !n;
        longest := Float.max !longest (Probe.now () -. t0);
        incr n
      done);
  !n

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* The largest the major heap has been in this process. Workloads read
   it after their first pass: later passes repeat the same work, but
   how many run depends on timing, and so would a later reading. *)
let heap_peak_mb () = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Major-heap words reachable only through the cell's content: the live
   words with it, minus those left once the cell is emptied. *)
let retained_words cell =
  let with_it = live_words () in
  cell := None;
  with_it - live_words ()
