(* clock_gettime(CLOCK_MONOTONIC) through bechamel's stub, bound
   directly rather than through [Monotonic_clock.now] so that the
   reading stays unboxed. Nanoseconds since boot fit an OCaml int for
   over a century of uptime, so a reading is an immediate int. *)
external monotonic_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

type t = int
type deadline = int

let now () = Int64.to_int (monotonic_ns ())
let since t0 = Float.of_int (now () - t0) *. 1e-9
let never = max_int

let after s =
  if not (s < 1e9) then never
  else now () + int_of_float (Float.max s (-1e9) *. 1e9)

let expired d = now () >= d

let remaining d =
  if d = never then infinity else Float.of_int (d - now ()) *. 1e-9
