type rule_counters = {
  c2_calls : int;
  c2_time_s : float;
  c4_calls : int;
  c4_time_s : float;
  capacity_calls : int;
  capacity_time_s : float;
  implication_calls : int;
  implication_time_s : float;
  realize_attempts : int;
  realize_time_s : float;
}

let zero_rules =
  {
    c2_calls = 0;
    c2_time_s = 0.0;
    c4_calls = 0;
    c4_time_s = 0.0;
    capacity_calls = 0;
    capacity_time_s = 0.0;
    implication_calls = 0;
    implication_time_s = 0.0;
    realize_attempts = 0;
    realize_time_s = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Per-bound counters                                                  *)
(* ------------------------------------------------------------------ *)

type bound_counter = { calls : int; time_s : float; prunes : int }

let zero_bound = { calls = 0; time_s = 0.0; prunes = 0 }

type bound_counters = (string * bound_counter) list

let add_bound a b = {
  calls = a.calls + b.calls;
  time_s = a.time_s +. b.time_s;
  prunes = a.prunes + b.prunes;
}

(* Pointwise merge keyed by bound name; keeps the order of [a] and
   appends names only [b] saw, so a parallel merge is stable. *)
let add_bound_counters a b =
  let merged =
    List.map
      (fun (name, ca) ->
        match List.assoc_opt name b with
        | Some cb -> (name, add_bound ca cb)
        | None -> (name, ca))
      a
  in
  let extra = List.filter (fun (name, _) -> not (List.mem_assoc name a)) b in
  merged @ extra

(* ------------------------------------------------------------------ *)
(* Result-cache counters                                                *)
(* ------------------------------------------------------------------ *)

type cache_counters = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  cache_capacity : int;
}

(* ------------------------------------------------------------------ *)
(* Work-stealing counters                                              *)
(* ------------------------------------------------------------------ *)

type steal_counters = {
  tasks : int;
  steals : int;
  donated : int;
  reclaimed : int;
}

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile on a sorted copy; the classic definition
   (ceil of p*n, 1-based) so p=1.0 is the maximum and p=0.0 the
   minimum. *)
let percentile samples ~p =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.round (ceil (p *. float_of_int n))) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* ------------------------------------------------------------------ *)
(* Progress snapshots                                                  *)
(* ------------------------------------------------------------------ *)

type progress = {
  elapsed_s : float;
  nodes : int;
  nodes_per_s : float;
  max_depth : int;
  decided_fraction : float;
  trail_length : int;
  bracket : (int * int) option;
  gap : int option;
}

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Raw of string (* preformatted literal, e.g. a fixed-precision number *)
  | List of json list
  | Obj of (string * json) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* JSON has no NaN/Infinity literals; emitting them would corrupt
       every downstream parser, so non-finite values degrade to null. *)
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Raw s -> Buffer.add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        render buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        render buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  render buf j;
  Buffer.contents buf

(* Seconds with microsecond precision, matching the historical
   "%.6f"-formatted elapsed fields. *)
let seconds s = Raw (Printf.sprintf "%.6f" s)

let rules_to_json r =
  Obj
    [
      ("c2_calls", Int r.c2_calls);
      ("c2_time_s", seconds r.c2_time_s);
      ("c4_calls", Int r.c4_calls);
      ("c4_time_s", seconds r.c4_time_s);
      ("capacity_calls", Int r.capacity_calls);
      ("capacity_time_s", seconds r.capacity_time_s);
      ("implication_calls", Int r.implication_calls);
      ("implication_time_s", seconds r.implication_time_s);
      ("realize_attempts", Int r.realize_attempts);
      ("realize_time_s", seconds r.realize_time_s);
    ]

let bounds_to_json (bs : bound_counters) =
  Obj
    (List.map
       (fun (name, c) ->
         ( name,
           Obj
             [
               ("calls", Int c.calls);
               ("time_s", seconds c.time_s);
               ("prunes", Int c.prunes);
             ] ))
       bs)

let steals_to_json (s : steal_counters) =
  Obj
    [
      ("tasks", Int s.tasks);
      ("steals", Int s.steals);
      ("donated", Int s.donated);
      ("reclaimed", Int s.reclaimed);
    ]

let cache_to_json c =
  Obj
    [
      ("hits", Int c.cache_hits);
      ("misses", Int c.cache_misses);
      ("evictions", Int c.cache_evictions);
      ("entries", Int c.cache_entries);
      ("capacity", Int c.cache_capacity);
    ]

let progress_to_json p =
  let opt f = function None -> Null | Some v -> f v in
  Obj
    [
      ("elapsed_s", seconds p.elapsed_s);
      ("nodes", Int p.nodes);
      ("nodes_per_s", Raw (Printf.sprintf "%.1f" p.nodes_per_s));
      ("max_depth", Int p.max_depth);
      ("decided_fraction", Raw (Printf.sprintf "%.4f" p.decided_fraction));
      ("trail_length", Int p.trail_length);
      ("bracket", opt (fun (lo, hi) -> List [ Int lo; Int hi ]) p.bracket);
      ("gap", opt (fun g -> Int g) p.gap);
    ]

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* A minimal recursive-descent JSON reader — enough to load back what
   {!to_string} emits (trace files, stats reports, bench JSON). Numbers
   without '.', 'e' or 'E' parse as [Int]; everything else as [Float].
   [Raw] is never produced. *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let code =
            (hex s.[!pos] lsl 12)
            lor (hex s.[!pos + 1] lsl 8)
            lor (hex s.[!pos + 2] lsl 4)
            lor hex s.[!pos + 3]
          in
          pos := !pos + 4;
          (* UTF-8 encode the code point (surrogate pairs untreated:
             the emitter only writes \u00XX control escapes). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Lookup helpers for consumers of parsed documents. *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Raw r -> float_of_string_opt r
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
