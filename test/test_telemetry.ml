(* Telemetry regression tests:

   - the JSON emitter must escape hostile strings (quotes, backslashes,
     control characters flow into bound names and certificate details)
     and render non-finite floats as null, so every [--stats json] and
     trace line stays parseable;
   - [of_string] must invert [to_string];
   - the bound-counter algebra used to merge worker snapshots must be
     associative, and a snapshot delta must recover the increment
     ([sub (add a b) a = b] up to dropped all-idle entries). *)

module T = Packing.Telemetry

let seed = [| 0x7E1E; 2026 |]

(* ------------------------------------------------------------------ *)
(* Escaping                                                            *)
(* ------------------------------------------------------------------ *)

let hostile =
  [
    "plain";
    "with \"quotes\"";
    "back\\slash";
    "new\nline and tab\t";
    "control\x01\x1f chars";
    "clique-space: axis 0 \"overflow\"";
    "utf8 \xc3\xa9\xe2\x82\xac";
  ]

let test_escaping () =
  List.iter
    (fun s ->
      let doc = T.Obj [ (s, T.String s) ] in
      match T.of_string (T.to_string doc) with
      | Error msg ->
        Alcotest.failf "emitted JSON for %S does not parse: %s" s msg
      | Ok (T.Obj [ (k, T.String v) ]) ->
        Alcotest.(check string) "key round-trips" s k;
        Alcotest.(check string) "value round-trips" s v
      | Ok _ -> Alcotest.fail "unexpected shape after round-trip")
    hostile

let test_nonfinite_floats () =
  List.iter
    (fun x ->
      let s = T.to_string (T.Obj [ ("x", T.Float x) ]) in
      Alcotest.(check string) "non-finite float renders as null"
        "{\"x\":null}" s)
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let test_parser_round_trip () =
  let doc =
    T.Obj
      [
        ("i", T.Int 42);
        ("neg", T.Int (-7));
        ("f", T.Float 2.5);
        ("s", T.String "hi");
        ("b", T.Bool true);
        ("n", T.Null);
        ("l", T.List [ T.Int 1; T.List []; T.Obj [] ]);
        ("o", T.Obj [ ("nested", T.String "deep \"quote\"") ]);
      ]
  in
  match T.of_string (T.to_string doc) with
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg
  | Ok j ->
    Alcotest.(check string) "re-emission is identical" (T.to_string doc)
      (T.to_string j)

let test_parser_rejects_garbage () =
  List.iter
    (fun s ->
      match T.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parser accepted %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Bound-counter algebra                                               *)
(* ------------------------------------------------------------------ *)

(* Each list draws distinct names from a small pool so [List.assoc]
   semantics are well-defined; values stay small enough that float
   addition is exact apart from representable rounding. *)
let counters_arb =
  let open QCheck in
  let entry =
    map
      (fun (name, calls, prunes, dt) ->
        ( name,
          {
            T.calls;
            time_s = float_of_int dt /. 64.0;
            prunes = min prunes calls;
          } ))
      (quad
         (oneofl [ "volume"; "clique-time"; "energetic"; "dff"; "misfit" ])
         (int_bound 50) (int_bound 50) (int_bound 100))
  in
  map
    (fun entries ->
      (* dedupe by name, first occurrence wins *)
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (name, _) ->
          if Hashtbl.mem seen name then false
          else begin
            Hashtbl.add seen name ();
            true
          end)
        entries)
    (small_list entry)

let eq_counters a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, ca) (nb, cb) ->
         na = nb
         && ca.T.calls = cb.T.calls
         && ca.T.prunes = cb.T.prunes
         && Float.abs (ca.T.time_s -. cb.T.time_s) < 1e-9)
       a b

let assoc_prop (a, b, c) =
  eq_counters
    (T.add_bound_counters (T.add_bound_counters a b) c)
    (T.add_bound_counters a (T.add_bound_counters b c))

(* A recorder's [take_bounds] hands out the work since the previous
   take, leaving idle bounds out, while [bounds] keeps every registered
   bound in registration order. *)
let test_take_bounds () =
  let module R = Packing.Recorder in
  let r = R.create () in
  let x = R.register_bound r "volume" and y = R.register_bound r "energetic" in
  let call b v =
    R.start r;
    R.bound_call r b v
  in
  call x Packing.Trace.Bv_inconclusive;
  call x (Packing.Trace.Bv_infeasible "full");
  let names l = List.map fst l in
  let first = R.take_bounds r in
  Alcotest.(check (list string)) "only the busy bound" [ "volume" ] (names first);
  let c = List.assoc "volume" first in
  Alcotest.(check (pair int int)) "calls and prunes" (2, 1) (c.T.calls, c.T.prunes);
  call y (Packing.Trace.Bv_lower_bound 3);
  Alcotest.(check (list string)) "work since the last take" [ "energetic" ]
    (names (R.take_bounds r));
  Alcotest.(check (list string)) "nothing new" [] (names (R.take_bounds r));
  Alcotest.(check (list string)) "every bound stays registered"
    [ "volume"; "energetic" ] (names (R.bounds r))

(* ------------------------------------------------------------------ *)
(* Nearest-rank percentile                                             *)
(* ------------------------------------------------------------------ *)

(* The independent reference: sort, take the 1-based ceil(p*n)-th
   element, clamped into range. *)
let reference_percentile samples p =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let arb_percentile_case =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 100) (float_bound_exclusive 1000.0))
      (float_bound_inclusive 1.0))

let prop_percentile_matches_reference (samples, p) =
  let a = Array.of_list samples in
  let got = T.percentile a ~p in
  let want = reference_percentile a p in
  if got <> want then
    QCheck.Test.fail_reportf "percentile ~p:%g = %g, reference says %g" p got
      want;
  true

let prop_percentile_is_a_sample (samples, p) =
  let a = Array.of_list samples in
  List.mem (T.percentile a ~p) samples

let test_percentile_edges () =
  Alcotest.(check (float 0.0)) "empty array is 0.0" 0.0
    (T.percentile [||] ~p:0.5);
  let single = [| 42.0 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "singleton at p=%g" p)
        42.0 (T.percentile single ~p))
    [ 0.0; 0.5; 1.0 ];
  let a = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "p=0 is the minimum" 1.0
    (T.percentile a ~p:0.0);
  Alcotest.(check (float 0.0)) "p=1 is the maximum" 5.0
    (T.percentile a ~p:1.0);
  Alcotest.(check (float 0.0)) "p=0.5 is the median" 3.0
    (T.percentile a ~p:0.5);
  (* ties: duplicates must not confuse the rank *)
  Alcotest.(check (float 0.0)) "duplicates keep nearest rank" 2.0
    (T.percentile [| 2.0; 2.0; 2.0; 9.0 |] ~p:0.5)

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "hostile strings escape and round-trip" `Quick
            test_escaping;
          Alcotest.test_case "non-finite floats render as null" `Quick
            test_nonfinite_floats;
          Alcotest.test_case "parser inverts the emitter" `Quick
            test_parser_round_trip;
          Alcotest.test_case "parser rejects malformed input" `Quick
            test_parser_rejects_garbage;
        ] );
      ( "counters",
        [
          Fixed_seed.qtest ~seed ~count:200 "add_bound_counters is associative"
            QCheck.(triple counters_arb counters_arb counters_arb) assoc_prop;
          Alcotest.test_case "take_bounds returns the work since the last take"
            `Quick test_take_bounds;
        ] );
      ( "percentile",
        [
          Fixed_seed.qtest ~seed ~count:200 "matches the naive sorted reference"
            arb_percentile_case prop_percentile_matches_reference;
          Fixed_seed.qtest ~seed ~count:200 "always returns one of the samples"
            arb_percentile_case prop_percentile_is_a_sample;
          Alcotest.test_case "edge cases: empty, singleton, p=0/0.5/1"
            `Quick test_percentile_edges;
        ] );
    ]
