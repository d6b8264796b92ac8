(* Process-wide metrics registry. Hot-path design mirrors Trace:
   - [null] handles are a variant constructor; every update matches on
     the handle first and returns on the null arm.
   - Counters and histograms are sharded per domain: a cell list under
     an Atomic, registered by CAS on a domain's first touch
     ([Per_domain], shared with the Trace streams). Updates are plain
     writes to the owning domain's cell; only registration
     synchronizes.
   - Gauges are set/shift, not increment-heavy; a per-gauge mutex keeps
     them exact without complicating the counter path.
   Snapshots merge the shards without stopping writers, so a live
   scrape is eventually consistent; after writers join it is exact. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* --- shard cells --------------------------------------------------- *)

type ccell = { c_domain : int; mutable c_v : float }

type hcell = {
  h_domain : int;
  h_counts : int array; (* per-bucket (NOT cumulative); last is +Inf *)
  mutable h_sum : float;
  mutable h_count : int;
}

type gcell = { g_lock : Mutex.t; mutable g_v : float }

type series =
  | S_counter of ccell list Atomic.t
  | S_gauge of gcell
  | S_histogram of { hs_le : float array; hs_cells : hcell list Atomic.t }

type fam = {
  f_name : string;
  f_kind : kind;
  mutable f_help : string;
  f_buckets : float array; (* histogram upper bounds, finite, increasing *)
  (* key = canonical label rendering; value keeps the sorted labels *)
  f_series : (string, (string * string) list * series) Hashtbl.t;
}

type registry = { lock : Mutex.t; families : (string, fam) Hashtbl.t }
type t = Null | Active of registry

let null = Null
let create () = Active { lock = Mutex.create (); families = Hashtbl.create 64 }
let enabled = function Null -> false | Active _ -> true

let default_t = Atomic.make Null
let default () = Atomic.get default_t
let set_default t = Atomic.set default_t t

(* --- name / label validation -------------------------------------- *)

let name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let label_name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* Canonical rendering of a sorted label list; also the series key. *)
let label_key labels =
  match labels with
  | [] -> ""
  | _ ->
    let b = Buffer.create 32 in
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_label_value v);
        Buffer.add_char b '"')
      labels;
    Buffer.contents b

let canonical_labels ~name labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as tl) ->
      if a = b then
        invalid_arg (Printf.sprintf "Metrics: duplicate label %S on %s" a name);
      check tl
    | _ -> ()
  in
  List.iter
    (fun (k, _) ->
      if not (label_name_ok k) then
        invalid_arg (Printf.sprintf "Metrics: bad label name %S on %s" k name))
    sorted;
  check sorted;
  sorted

(* --- registration -------------------------------------------------- *)

let default_latency_buckets =
  Array.init 24 (fun i -> 1e-5 *. (2.0 ** float_of_int i))

let log_buckets ~lo ~ratio ~count =
  if not (lo > 0.0 && Float.is_finite lo) then
    invalid_arg "Metrics.log_buckets: lo must be finite and > 0";
  if not (ratio > 1.0 && Float.is_finite ratio) then
    invalid_arg "Metrics.log_buckets: ratio must be finite and > 1";
  if count < 1 then invalid_arg "Metrics.log_buckets: count < 1";
  Array.init count (fun i -> lo *. (ratio ** float_of_int i))

let latency_buckets = default_latency_buckets
let node_buckets = log_buckets ~lo:1.0 ~ratio:4.0 ~count:12

let check_buckets name le =
  if Array.length le = 0 then
    invalid_arg (Printf.sprintf "Metrics: %s: empty bucket ladder" name);
  Array.iteri
    (fun i v ->
      if not (Float.is_finite v) then
        invalid_arg (Printf.sprintf "Metrics: %s: non-finite bucket" name);
      if i > 0 && not (v > le.(i - 1)) then
        invalid_arg
          (Printf.sprintf "Metrics: %s: buckets not strictly increasing" name))
    le

let family r ~name ~kind ~help ~buckets =
  if not (name_ok name) then
    invalid_arg (Printf.sprintf "Metrics: bad metric name %S" name);
  match Hashtbl.find_opt r.families name with
  | Some f ->
    if f.f_kind <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %s is a %s, requested as %s" name
           (kind_name f.f_kind) (kind_name kind));
    if help <> "" && f.f_help = "" then f.f_help <- help;
    f
  | None ->
    if kind = Histogram then check_buckets name buckets;
    let f =
      {
        f_name = name;
        f_kind = kind;
        f_help = help;
        f_buckets = buckets;
        f_series = Hashtbl.create 4;
      }
    in
    Hashtbl.add r.families name f;
    f

let series r ~name ~kind ~help ~buckets ~labels =
  Mutex.protect r.lock (fun () ->
      let f = family r ~name ~kind ~help ~buckets in
      let labels = canonical_labels ~name labels in
      let key = label_key labels in
      match Hashtbl.find_opt f.f_series key with
      | Some (_, s) -> s
      | None ->
        let s =
          match kind with
          | Counter -> S_counter (Atomic.make [])
          | Gauge -> S_gauge { g_lock = Mutex.create (); g_v = 0.0 }
          | Histogram ->
            S_histogram { hs_le = f.f_buckets; hs_cells = Atomic.make [] }
        in
        Hashtbl.add f.f_series key (labels, s);
        s)

(* --- handles -------------------------------------------------------- *)

type counter = C_null | C of ccell list Atomic.t
type gauge = G_null | G of gcell
type histogram = H_null | H of { le : float array; cells : hcell list Atomic.t }

let counter t ?(help = "") ?(labels = []) name =
  match t with
  | Null -> C_null
  | Active r -> (
    match series r ~name ~kind:Counter ~help ~buckets:[||] ~labels with
    | S_counter cells -> C cells
    | _ -> assert false)

let gauge t ?(help = "") ?(labels = []) name =
  match t with
  | Null -> G_null
  | Active r -> (
    match series r ~name ~kind:Gauge ~help ~buckets:[||] ~labels with
    | S_gauge g -> G g
    | _ -> assert false)

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_latency_buckets)
    name =
  match t with
  | Null -> H_null
  | Active r -> (
    match series r ~name ~kind:Histogram ~help ~buckets ~labels with
    | S_histogram { hs_le; hs_cells } -> H { le = hs_le; cells = hs_cells }
    | _ -> assert false)

(* --- hot-path updates ----------------------------------------------- *)

(* The calling domain's cell, registered on first touch. *)
let ccell_domain c = c.c_domain
let new_ccell id () = { c_domain = id; c_v = 0.0 }
let ccell cells = Per_domain.get cells ~owner:ccell_domain ~make:new_ccell ()

let addf h d =
  match h with
  | C_null -> ()
  | C cells ->
    let c = ccell cells in
    c.c_v <- c.c_v +. d

let add h n = addf h (float_of_int n)
let incr h = addf h 1.0

let set g v =
  match g with
  | G_null -> ()
  | G c -> Mutex.protect c.g_lock (fun () -> c.g_v <- v)

let shift g d =
  match g with
  | G_null -> ()
  | G c -> Mutex.protect c.g_lock (fun () -> c.g_v <- c.g_v +. d)

let hcell_domain c = c.h_domain

let new_hcell id n_buckets =
  {
    h_domain = id;
    h_counts = Array.make (n_buckets + 1) 0;
    h_sum = 0.0;
    h_count = 0;
  }

let hcell ~n_buckets cells =
  Per_domain.get cells ~owner:hcell_domain ~make:new_hcell n_buckets

let observe h v =
  match h with
  | H_null -> ()
  | H { le; cells } ->
    let n = Array.length le in
    let c = hcell ~n_buckets:n cells in
    let i = ref 0 in
    while !i < n && v > le.(!i) do
      Stdlib.incr i
    done;
    c.h_counts.(!i) <- c.h_counts.(!i) + 1;
    c.h_sum <- c.h_sum +. v;
    c.h_count <- c.h_count + 1

(* --- snapshots ------------------------------------------------------ *)

type value =
  | Sample of float
  | Buckets of {
      le : float array;
      cumulative : int array;
      sum : float;
      count : int;
    }

type sample = { labels : (string * string) list; value : value }
type family = { name : string; kind : kind; help : string; samples : sample list }
type snapshot = family list

let merge_series = function
  | S_counter cells ->
    Sample
      (List.fold_left (fun acc c -> acc +. c.c_v) 0.0 (Atomic.get cells))
  | S_gauge g -> Sample (Mutex.protect g.g_lock (fun () -> g.g_v))
  | S_histogram { hs_le; hs_cells } ->
    let n = Array.length hs_le in
    let counts = Array.make (n + 1) 0 in
    let sum = ref 0.0 and count = ref 0 in
    List.iter
      (fun c ->
        for i = 0 to n do
          counts.(i) <- counts.(i) + c.h_counts.(i)
        done;
        sum := !sum +. c.h_sum;
        count := !count + c.h_count)
      (Atomic.get hs_cells);
    let le = Array.append hs_le [| Float.infinity |] in
    let cumulative = Array.make (n + 1) 0 in
    let acc = ref 0 in
    for i = 0 to n do
      acc := !acc + counts.(i);
      cumulative.(i) <- !acc
    done;
    Buckets { le; cumulative; sum = !sum; count = !count }

let snapshot t =
  match t with
  | Null -> []
  | Active r ->
    Mutex.protect r.lock (fun () ->
        Hashtbl.fold (fun _ f acc -> f :: acc) r.families []
        |> List.sort (fun a b -> compare a.f_name b.f_name)
        |> List.map (fun f ->
               let samples =
                 Hashtbl.fold
                   (fun key (labels, s) acc -> (key, labels, s) :: acc)
                   f.f_series []
                 |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
                 |> List.map (fun (_, labels, s) ->
                        { labels; value = merge_series s })
               in
               { name = f.f_name; kind = f.f_kind; help = f.f_help; samples }))

(* --- Prometheus text exposition ------------------------------------- *)

let fmt_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape_help s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char b '\\'
       | 'n' -> Buffer.add_char b '\n'
       | c ->
         Buffer.add_char b '\\';
         Buffer.add_char b c);
       Stdlib.incr i
     end
     else Buffer.add_char b s.[!i]);
    Stdlib.incr i
  done;
  Buffer.contents b

let sample_line b ~name ~labels ~extra v =
  Buffer.add_string b name;
  let lk = label_key labels in
  (match (lk, extra) with
  | "", "" -> ()
  | _ ->
    Buffer.add_char b '{';
    Buffer.add_string b lk;
    if lk <> "" && extra <> "" then Buffer.add_char b ',';
    Buffer.add_string b extra;
    Buffer.add_char b '}');
  Buffer.add_char b ' ';
  Buffer.add_string b v;
  Buffer.add_char b '\n'

let to_prometheus (snap : snapshot) =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      if f.help <> "" then (
        Buffer.add_string b "# HELP ";
        Buffer.add_string b f.name;
        Buffer.add_char b ' ';
        Buffer.add_string b (escape_help f.help);
        Buffer.add_char b '\n');
      Buffer.add_string b "# TYPE ";
      Buffer.add_string b f.name;
      Buffer.add_char b ' ';
      Buffer.add_string b (kind_name f.kind);
      Buffer.add_char b '\n';
      List.iter
        (fun s ->
          match s.value with
          | Sample v ->
            sample_line b ~name:f.name ~labels:s.labels ~extra:"" (fmt_float v)
          | Buckets { le; cumulative; sum; count } ->
            Array.iteri
              (fun i up ->
                sample_line b
                  ~name:(f.name ^ "_bucket")
                  ~labels:s.labels
                  ~extra:(Printf.sprintf "le=\"%s\"" (fmt_float up))
                  (string_of_int cumulative.(i)))
              le;
            sample_line b ~name:(f.name ^ "_sum") ~labels:s.labels ~extra:""
              (fmt_float sum);
            sample_line b ~name:(f.name ^ "_count") ~labels:s.labels ~extra:""
              (string_of_int count))
        f.samples)
    snap;
  Buffer.contents b

(* --- JSON form ------------------------------------------------------ *)

module T = Telemetry

let json_float v = if Float.is_finite v then T.Float v else T.String "+Inf"

let to_json (snap : snapshot) =
  T.Obj
    [
      ( "families",
        T.List
          (List.map
             (fun f ->
               T.Obj
                 [
                   ("name", T.String f.name);
                   ("kind", T.String (kind_name f.kind));
                   ("help", T.String f.help);
                   ( "samples",
                     T.List
                       (List.map
                          (fun s ->
                            let labels =
                              T.Obj
                                (List.map
                                   (fun (k, v) -> (k, T.String v))
                                   s.labels)
                            in
                            match s.value with
                            | Sample v ->
                              T.Obj [ ("labels", labels); ("value", T.Float v) ]
                            | Buckets { le; cumulative; sum; count } ->
                              T.Obj
                                [
                                  ("labels", labels);
                                  ("sum", T.Float sum);
                                  ("count", T.Int count);
                                  ( "le",
                                    T.List
                                      (Array.to_list
                                         (Array.map json_float le)) );
                                  ( "cumulative",
                                    T.List
                                      (Array.to_list
                                         (Array.map
                                            (fun c -> T.Int c)
                                            cumulative)) );
                                ])
                          f.samples) );
                 ])
             snap) );
    ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let rec result_map f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = result_map f tl in
    Ok (y :: ys)

let json_to_float j =
  match T.to_float_opt j with
  | Some v -> Ok v
  | None -> (
    match T.to_string_opt j with
    | Some "+Inf" -> Ok Float.infinity
    | _ -> Error "metrics json: expected number")

let of_json j =
  match T.member "families" j with
  | Some (T.List fams) ->
    result_map
      (fun fj ->
        let str key =
          match Option.bind (T.member key fj) T.to_string_opt with
          | Some s -> Ok s
          | None -> Error (Printf.sprintf "metrics json: missing %S" key)
        in
        let* name = str "name" in
        let* kind_s = str "kind" in
        let* kind =
          match kind_s with
          | "counter" -> Ok Counter
          | "gauge" -> Ok Gauge
          | "histogram" -> Ok Histogram
          | k -> Error (Printf.sprintf "metrics json: unknown kind %S" k)
        in
        let help =
          match Option.bind (T.member "help" fj) T.to_string_opt with
          | Some h -> h
          | None -> ""
        in
        let* samples =
          match T.member "samples" fj with
          | Some (T.List ss) ->
            result_map
              (fun sj ->
                let* labels =
                  match T.member "labels" sj with
                  | Some (T.Obj kvs) ->
                    result_map
                      (fun (k, v) ->
                        match T.to_string_opt v with
                        | Some s -> Ok (k, s)
                        | None -> Error "metrics json: label value not string")
                      kvs
                  | Some T.Null | None -> Ok []
                  | Some _ -> Error "metrics json: labels not an object"
                in
                match kind with
                | Counter | Gauge -> (
                  match Option.bind (T.member "value" sj) T.to_float_opt with
                  | Some v -> Ok { labels; value = Sample v }
                  | None -> Error "metrics json: sample missing value")
                | Histogram -> (
                  let num key =
                    match Option.bind (T.member key sj) T.to_float_opt with
                    | Some v -> Ok v
                    | None ->
                      Error (Printf.sprintf "metrics json: missing %S" key)
                  in
                  let* sum = num "sum" in
                  let* count = num "count" in
                  match (T.member "le" sj, T.member "cumulative" sj) with
                  | Some (T.List les), Some (T.List cums)
                    when List.length les = List.length cums ->
                    let* le = result_map json_to_float les in
                    let* cum =
                      result_map
                        (fun c ->
                          match T.to_int_opt c with
                          | Some i -> Ok i
                          | None -> Error "metrics json: bucket not int")
                        cums
                    in
                    Ok
                      {
                        labels;
                        value =
                          Buckets
                            {
                              le = Array.of_list le;
                              cumulative = Array.of_list cum;
                              sum;
                              count = int_of_float count;
                            };
                      }
                  | _ -> Error "metrics json: histogram buckets malformed"))
              ss
          | _ -> Error "metrics json: missing samples"
        in
        Ok { name; kind; help; samples })
      fams
  | _ -> Error "metrics json: missing families"

(* --- exposition parser ---------------------------------------------- *)

(* Strict enough to double as the well-formedness check: a sample line
   whose family never saw a [# TYPE] is an error, histogram buckets
   must be non-decreasing and end in +Inf. *)

let parse_value s =
  match s with
  | "+Inf" | "Inf" -> Ok Float.infinity
  | "-Inf" -> Ok Float.neg_infinity
  | "NaN" -> Ok Float.nan
  | _ -> (
    match float_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad sample value %S" s))

(* name{k="v",...} -> name, labels; values may contain escapes. *)
let parse_labels ~line s =
  let n = String.length s in
  let rec skip_ws i = if i < n && s.[i] = ' ' then skip_ws (i + 1) else i in
  let rec pairs i acc =
    let i = skip_ws i in
    if i >= n then Error (Printf.sprintf "line %d: unterminated labels" line)
    else if s.[i] = '}' then Ok (List.rev acc, i + 1)
    else
      let j = ref i in
      while !j < n && s.[!j] <> '=' do Stdlib.incr j done;
      if !j >= n then Error (Printf.sprintf "line %d: label missing '='" line)
      else
        let k = String.trim (String.sub s i (!j - i)) in
        let i = !j + 1 in
        if i >= n || s.[i] <> '"' then
          Error (Printf.sprintf "line %d: label value not quoted" line)
        else begin
          let b = Buffer.create 16 in
          let i = ref (i + 1) in
          let err = ref None in
          let fin = ref (-1) in
          while !fin < 0 && !err = None do
            if !i >= n then err := Some "unterminated label value"
            else
              match s.[!i] with
              | '"' -> fin := !i + 1
              | '\\' ->
                if !i + 1 >= n then err := Some "dangling escape"
                else begin
                  (match s.[!i + 1] with
                  | 'n' -> Buffer.add_char b '\n'
                  | c -> Buffer.add_char b c);
                  i := !i + 2
                end
              | c ->
                Buffer.add_char b c;
                i := !i + 1
          done;
          match !err with
          | Some e -> Error (Printf.sprintf "line %d: %s" line e)
          | None ->
            let i = skip_ws !fin in
            if i < n && s.[i] = ',' then
              pairs (i + 1) ((k, Buffer.contents b) :: acc)
            else pairs i ((k, Buffer.contents b) :: acc)
        end
  in
  pairs 0 []

type h_builder = {
  mutable hb_buckets : (float * int) list;
  mutable hb_sum : float option;
  mutable hb_count : int option;
}

let strip_suffix name suffix =
  if String.length name > String.length suffix
     && String.sub name
          (String.length name - String.length suffix)
          (String.length suffix)
        = suffix
  then Some (String.sub name 0 (String.length name - String.length suffix))
  else None

let of_prometheus text =
  let lines = String.split_on_char '\n' text in
  let kinds : (string, kind) Hashtbl.t = Hashtbl.create 16 in
  let helps : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let order : string list ref = ref [] in
  (* (family, label_key) -> labels * value accumulator *)
  let scalars : (string * string, (string * string) list * float) Hashtbl.t =
    Hashtbl.create 16
  in
  let hists : (string * string, (string * string) list * h_builder) Hashtbl.t =
    Hashtbl.create 16
  in
  let sample_order : (string * string) list ref = ref [] in
  let err = ref None in
  let fail line msg =
    if !err = None then err := Some (Printf.sprintf "line %d: %s" line msg)
  in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let s = String.trim raw in
      if s = "" || !err <> None then ()
      else if String.length s >= 1 && s.[0] = '#' then begin
        match String.split_on_char ' ' s with
        | "#" :: "TYPE" :: name :: kind_s :: _ -> (
          let k =
            match kind_s with
            | "counter" -> Some Counter
            | "gauge" -> Some Gauge
            | "histogram" -> Some Histogram
            | _ -> None
          in
          match k with
          | None -> fail line (Printf.sprintf "unknown TYPE %S" kind_s)
          | Some k ->
            if Hashtbl.mem kinds name then
              fail line (Printf.sprintf "duplicate TYPE for %s" name)
            else begin
              Hashtbl.add kinds name k;
              order := name :: !order
            end)
        | "#" :: "HELP" :: name :: rest ->
          Hashtbl.replace helps name (unescape_help (String.concat " " rest))
        | _ -> () (* other comments ignored *)
      end
      else begin
        (* sample line: name[{labels}] value *)
        let name_end = ref 0 in
        let n = String.length s in
        while
          !name_end < n && s.[!name_end] <> '{' && s.[!name_end] <> ' '
        do
          Stdlib.incr name_end
        done;
        let name = String.sub s 0 !name_end in
        let labels_r, rest_i =
          if !name_end < n && s.[!name_end] = '{' then
            match
              parse_labels ~line
                (String.sub s (!name_end + 1) (n - !name_end - 1))
            with
            | Ok (labels, consumed) -> (Ok labels, !name_end + 1 + consumed)
            | Error e -> (Error e, n)
          else (Ok [], !name_end)
        in
        match labels_r with
        | Error e -> fail line e
        | Ok labels -> (
          let v_str = String.trim (String.sub s rest_i (n - rest_i)) in
          match parse_value (List.hd (String.split_on_char ' ' v_str)) with
          | Error e -> fail line e
          | Ok v -> (
            (* classify: histogram component or scalar *)
            let hist_component =
              let check suffix =
                match strip_suffix name suffix with
                | Some base when Hashtbl.find_opt kinds base = Some Histogram
                  ->
                  Some (base, suffix)
                | _ -> None
              in
              match check "_bucket" with
              | Some r -> Some r
              | None -> (
                match check "_sum" with
                | Some r -> Some r
                | None -> check "_count")
            in
            match hist_component with
            | Some (base, suffix) ->
              let plain =
                List.filter (fun (k, _) -> k <> "le") labels
                |> List.sort (fun (a, _) (b, _) -> compare a b)
              in
              let key = (base, label_key plain) in
              let hb =
                match Hashtbl.find_opt hists key with
                | Some (_, hb) -> hb
                | None ->
                  let hb =
                    { hb_buckets = []; hb_sum = None; hb_count = None }
                  in
                  Hashtbl.add hists key (plain, hb);
                  sample_order := key :: !sample_order;
                  hb
              in
              if suffix = "_bucket" then begin
                match List.assoc_opt "le" labels with
                | None -> fail line "histogram bucket without le label"
                | Some le_s -> (
                  match parse_value le_s with
                  | Error e -> fail line e
                  | Ok le ->
                    hb.hb_buckets <- (le, int_of_float v) :: hb.hb_buckets)
              end
              else if suffix = "_sum" then hb.hb_sum <- Some v
              else hb.hb_count <- Some (int_of_float v)
            | None -> (
              match Hashtbl.find_opt kinds name with
              | None ->
                fail line
                  (Printf.sprintf "sample %s has no preceding # TYPE" name)
              | Some Histogram ->
                fail line
                  (Printf.sprintf
                     "histogram %s exposed as a bare sample" name)
              | Some (Counter | Gauge) ->
                let labels =
                  List.sort (fun (a, _) (b, _) -> compare a b) labels
                in
                let key = (name, label_key labels) in
                if Hashtbl.mem scalars key then
                  fail line (Printf.sprintf "duplicate sample for %s" name)
                else begin
                  Hashtbl.add scalars key (labels, v);
                  sample_order := key :: !sample_order
                end)))
      end)
    lines;
  match !err with
  | Some e -> Error e
  | None ->
    let sample_keys = List.rev !sample_order in
    let finish_hist fam key =
      match Hashtbl.find_opt hists (fam, key) with
      | None -> Error (Printf.sprintf "internal: lost histogram %s" fam)
      | Some (labels, hb) -> (
        let buckets =
          List.sort (fun (a, _) (b, _) -> compare a b) (List.rev hb.hb_buckets)
        in
        match (buckets, hb.hb_sum, hb.hb_count) with
        | [], _, _ -> Error (Printf.sprintf "%s: histogram has no buckets" fam)
        | _, None, _ -> Error (Printf.sprintf "%s: histogram missing _sum" fam)
        | _, _, None ->
          Error (Printf.sprintf "%s: histogram missing _count" fam)
        | _, Some sum, Some count ->
          let le = Array.of_list (List.map fst buckets) in
          let cumulative = Array.of_list (List.map snd buckets) in
          let n = Array.length le in
          if le.(n - 1) <> Float.infinity then
            Error (Printf.sprintf "%s: buckets do not end in +Inf" fam)
          else if cumulative.(n - 1) <> count then
            Error
              (Printf.sprintf "%s: +Inf bucket (%d) disagrees with _count (%d)"
                 fam cumulative.(n - 1) count)
          else begin
            let mono = ref true in
            for i = 1 to n - 1 do
              if cumulative.(i) < cumulative.(i - 1) then mono := false
            done;
            if not !mono then
              Error (Printf.sprintf "%s: bucket counts not cumulative" fam)
            else
              Ok { labels; value = Buckets { le; cumulative; sum; count } }
          end)
    in
    let* families =
      result_map
        (fun name ->
          let kind = Hashtbl.find kinds name in
          let keys =
            List.filter (fun (fam, _) -> fam = name) sample_keys
            |> List.map snd
          in
          let* samples =
            result_map
              (fun key ->
                match kind with
                | Histogram -> finish_hist name key
                | Counter | Gauge -> (
                  match Hashtbl.find_opt scalars (name, key) with
                  | Some (labels, v) -> Ok { labels; value = Sample v }
                  | None -> Error (Printf.sprintf "internal: lost %s" name)))
              keys
          in
          let help =
            match Hashtbl.find_opt helps name with Some h -> h | None -> ""
          in
          Ok { name; kind; help; samples })
        (List.rev !order)
    in
    (* canonical snapshot ordering: families by name, samples by key *)
    Ok
      (List.sort (fun a b -> compare a.name b.name) families
      |> List.map (fun f ->
             {
               f with
               samples =
                 List.sort
                   (fun a b -> compare (label_key a.labels) (label_key b.labels))
                   f.samples;
             }))

(* --- human table ----------------------------------------------------- *)

let bucket_quantile ~le ~cumulative ~count q =
  if count = 0 then None
  else begin
    let target =
      let t = int_of_float (Float.ceil (q *. float_of_int count)) in
      if t < 1 then 1 else t
    in
    let n = Array.length le in
    let i = ref 0 in
    while !i < n - 1 && cumulative.(!i) < target do
      Stdlib.incr i
    done;
    Some le.(!i)
  end

let pp_table ppf (snap : snapshot) =
  let pp_labels ppf = function
    | [] -> Format.pp_print_string ppf "-"
    | labels ->
      Format.pp_print_string ppf
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))
  in
  List.iter
    (fun f ->
      Format.fprintf ppf "%s (%s)%s@." f.name (kind_name f.kind)
        (if f.help = "" then "" else " — " ^ f.help);
      List.iter
        (fun s ->
          match s.value with
          | Sample v ->
            Format.fprintf ppf "  %-40s %s@."
              (Format.asprintf "%a" pp_labels s.labels)
              (fmt_float v)
          | Buckets { le; cumulative; sum; count } ->
            let q p =
              match bucket_quantile ~le ~cumulative ~count p with
              | None -> "-"
              | Some up -> "<=" ^ fmt_float up
            in
            Format.fprintf ppf "  %-40s count=%d sum=%s p50%s p99%s@."
              (Format.asprintf "%a" pp_labels s.labels)
              count (fmt_float sum) (q 0.5) (q 0.99))
        f.samples)
    snap
