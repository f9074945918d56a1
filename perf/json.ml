(* A minimal JSON value, parser and printer: enough for BENCHMARK.json,
   the child-process result lines and the result files `compare` reads.
   Numbers print with the fewest digits that read back to the same float,
   so a measured value keeps all of its digits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (
        incr pos;
        Obj [])
      else
        let rec members acc =
          expect '"';
          let k = string_body () in
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            skip_ws ();
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (
        incr pos;
        Arr [])
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' ->
      incr pos;
      Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* Shortest decimal that reads back as the same float. *)
let number_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [indent] < 0 prints on one line. *)
let rec write b ~indent ~depth v =
  let nl d =
    if indent >= 0 then (
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (d * indent) ' '))
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (number_to_string f)
  | Str s -> Buffer.add_string b (escape s)
  | Arr [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | Arr items ->
    (* arrays of scalars stay on one line: sample lists read better *)
    let scalar = function Arr _ | Obj _ -> false | _ -> true in
    let inline = indent < 0 || List.for_all scalar items in
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b (if inline then ", " else ",");
        if not inline then nl (depth + 1);
        write b ~indent ~depth:(depth + 1) x)
      items;
    if not inline then nl depth;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b (if indent < 0 then ", " else ",");
        nl (depth + 1);
        Buffer.add_string b (escape k);
        Buffer.add_string b ": ";
        write b ~indent ~depth:(depth + 1) x)
      fields;
    nl depth;
    Buffer.add_char b '}'

let to_string ?(indent = -1) v =
  let b = Buffer.create 256 in
  write b ~indent ~depth:0 v;
  Buffer.contents b

(* ---- accessors ---------------------------------------------------------- *)

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_assoc = function Obj l -> l | _ -> []
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None

let num_exn what v =
  match to_num v with
  | Some f -> f
  | None -> raise (Parse_error (what ^ ": expected a number"))

let str_exn what v =
  match to_str v with
  | Some s -> s
  | None -> raise (Parse_error (what ^ ": expected a string"))
