(* The qcheck random state of a seeded suite: [rand default] starts
   from the suite's own [default] seed, so every run draws the same
   cases, unless QCHECK_SEED names another seed. *)
let rand default =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> Random.State.make [| int_of_string s |]
  | None -> Random.State.make default

(* A qcheck property as an alcotest case whose cases are drawn from
   [rand seed]. *)
let qtest ~seed ?(count = 100) ?(long_factor = 1) name arb prop =
  QCheck_alcotest.to_alcotest ~rand:(rand seed)
    (QCheck.Test.make ~count ~long_factor ~name arb prop)
