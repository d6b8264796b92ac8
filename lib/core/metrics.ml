(* Process-wide metrics registry. Every write is per flush, per request
   or per run, never per search node, so each series is one cell under
   its own mutex and a snapshot reads exact values.
   - [null] handles are a variant constructor; every update matches on
     the handle first and returns on the null arm. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* --- cells ---------------------------------------------------------- *)

(* One series. A counter or a gauge keeps its value in [v]; a histogram
   keeps its sum there, with per-bucket (NOT cumulative) [counts] whose
   last is +Inf, and its observation [count]. *)
type cell = {
  lock : Mutex.t;
  mutable v : float;
  le : float array; (* histogram upper bounds, finite, increasing *)
  counts : int array;
  mutable count : int;
}

type fam = {
  f_name : string;
  f_kind : kind;
  mutable f_help : string;
  f_buckets : float array; (* histogram upper bounds, finite, increasing *)
  (* key = canonical label rendering; value keeps the sorted labels *)
  f_series : (string, (string * string) list * cell) Hashtbl.t;
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

(* Registration and the exposition reader share these checks: a name or
   label set that one direction refuses, the other refuses too. *)

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

let check_name name =
  if name_ok name then Ok () else Error (Printf.sprintf "bad metric name %S" name)

(* The labels sorted by key, or the first bad or repeated label name. *)
let check_labels ~name labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec repeated = function
    | (a, _) :: ((b, _) :: _ as tl) -> if a = b then Some a else repeated tl
    | _ -> None
  in
  match List.find_opt (fun (k, _) -> not (label_name_ok k)) sorted with
  | Some (k, _) -> Error (Printf.sprintf "bad label name %S on %s" k name)
  | None -> (
    match repeated sorted with
    | Some a -> Error (Printf.sprintf "duplicate label %S on %s" a name)
    | None -> Ok sorted)

let or_invalid = function
  | Ok v -> v
  | Error msg -> invalid_arg ("Metrics: " ^ msg)

(* --- registration -------------------------------------------------- *)

let default_latency_buckets =
  Array.init 24 (fun i -> 1e-5 *. (2.0 ** float_of_int i))

let node_buckets = Array.init 12 (fun i -> 4.0 ** float_of_int i)

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
  or_invalid (check_name name);
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
      let labels = or_invalid (check_labels ~name labels) in
      let key = label_key labels in
      match Hashtbl.find_opt f.f_series key with
      | Some (_, s) -> s
      | None ->
        let s =
          {
            lock = Mutex.create ();
            v = 0.0;
            le = f.f_buckets;
            counts = Array.make (Array.length f.f_buckets + 1) 0;
            count = 0;
          }
        in
        Hashtbl.add f.f_series key (labels, s);
        s)

(* --- handles -------------------------------------------------------- *)

type counter = cell option
type gauge = cell option
type histogram = cell option

let handle t ~kind ~help ~labels ~buckets name =
  match t with
  | Null -> None
  | Active r -> Some (series r ~name ~kind ~help ~buckets ~labels)

let counter t ?(help = "") ?(labels = []) name =
  handle t ~kind:Counter ~help ~labels ~buckets:[||] name

let gauge t ?(help = "") name =
  handle t ~kind:Gauge ~help ~labels:[] ~buckets:[||] name

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_latency_buckets)
    name =
  handle t ~kind:Histogram ~help ~labels ~buckets name

(* --- updates --------------------------------------------------------- *)

let update h f =
  match h with
  | None -> ()
  | Some (c : cell) -> Mutex.protect c.lock (fun () -> f c)
let shift g d = update g (fun c -> c.v <- c.v +. d)
let addf = shift
let add h n = addf h (float_of_int n)
let incr h = addf h 1.0
let set g v = update g (fun c -> c.v <- v)

let observe h v =
  update h (fun c ->
      let n = Array.length c.le in
      let i = ref 0 in
      while !i < n && v > c.le.(!i) do
        Stdlib.incr i
      done;
      c.counts.(!i) <- c.counts.(!i) + 1;
      c.v <- c.v +. v;
      c.count <- c.count + 1)

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

let read kind (c : cell) =
  Mutex.protect c.lock (fun () ->
      match kind with
      | Counter | Gauge -> Sample c.v
      | Histogram ->
        let acc = ref 0 in
        let cumulative =
          Array.map
            (fun k ->
              acc := !acc + k;
              !acc)
            c.counts
        in
        let le = Array.append c.le [| Float.infinity |] in
        Buckets { le; cumulative; sum = c.v; count = c.count })

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
                        { labels; value = read f.f_kind s })
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

(* --- exposition parser ---------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let rec result_map f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = result_map f tl in
    Ok (y :: ys)

(* Strict enough to double as the well-formedness check: a sample line
   whose family never saw a [# TYPE] is an error, a counter is never
   negative, histogram buckets have distinct non-NaN [le]s, must be
   non-decreasing and end in +Inf, and every bucket and [_count] value
   is a count. *)

(* A bucket or [_count] value: a finite integer in [0, 2^53]. *)
let count_of v =
  if Float.is_integer v && v >= 0.0 && v <= 0x1p53 then Some (int_of_float v)
  else None

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
let parse_labels s =
  let n = String.length s in
  let rec skip_ws i = if i < n && s.[i] = ' ' then skip_ws (i + 1) else i in
  let rec pairs i acc =
    let i = skip_ws i in
    if i >= n then Error "unterminated labels"
    else if s.[i] = '}' then Ok (List.rev acc, i + 1)
    else
      let j = ref i in
      while !j < n && s.[!j] <> '=' do Stdlib.incr j done;
      if !j >= n then Error "label missing '='"
      else
        let k = String.trim (String.sub s i (!j - i)) in
        let i = !j + 1 in
        if i >= n || s.[i] <> '"' then Error "label value not quoted"
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
          | Some e -> Error e
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
          | Some k -> (
            match check_name name with
            | Error e -> fail line e
            | Ok () when Hashtbl.mem kinds name ->
              fail line (Printf.sprintf "duplicate TYPE for %s" name)
            | Ok () ->
              Hashtbl.add kinds name k;
              order := name :: !order))
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
              parse_labels (String.sub s (!name_end + 1) (n - !name_end - 1))
            with
            | Ok (labels, consumed) -> (Ok labels, !name_end + 1 + consumed)
            | Error e -> (Error e, n)
          else (Ok [], !name_end)
        in
        match Result.bind labels_r (check_labels ~name) with
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
              let plain = List.filter (fun (k, _) -> k <> "le") labels in
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
              if suffix = "_sum" then hb.hb_sum <- Some v
              else begin
                match (count_of v, suffix) with
                | None, _ ->
                  fail line
                    (Printf.sprintf "%s is not a count: %s" name (fmt_float v))
                | Some c, "_count" -> hb.hb_count <- Some c
                | Some c, _ -> (
                  match List.assoc_opt "le" labels with
                  | None -> fail line "histogram bucket without le label"
                  | Some le_s -> (
                    match parse_value le_s with
                    | Error e -> fail line e
                    | Ok le when Float.is_nan le -> fail line "le is NaN"
                    | Ok le when List.mem_assoc le hb.hb_buckets ->
                      fail line (Printf.sprintf "repeated le=%S" le_s)
                    | Ok le -> hb.hb_buckets <- (le, c) :: hb.hb_buckets))
              end
            | None -> (
              match Hashtbl.find_opt kinds name with
              | None ->
                fail line
                  (Printf.sprintf "sample %s has no preceding # TYPE" name)
              | Some Histogram ->
                fail line
                  (Printf.sprintf
                     "histogram %s exposed as a bare sample" name)
              | Some Counter when v < 0.0 ->
                fail line (Printf.sprintf "counter %s is negative" name)
              | Some (Counter | Gauge) ->
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
