(* Every duration in the benchmark comes from this one clock:
   clock_gettime(CLOCK_MONOTONIC) through bechamel's stub, which does
   not jump with the wall clock and resolves nanoseconds. It is bound
   to the stub directly, not through [Monotonic_clock.now], so that a
   reading allocates nothing (see probe.ml). *)

let name = "bechamel.monotonic_clock"

external now : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
