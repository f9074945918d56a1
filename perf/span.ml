(* In-memory spans for the traced replica: name, layer, start, end,
   parent and the words the span's code allocated (minor + direct major,
   from Gc.counters deltas — exact because the replica runs on one
   domain).  A layer's busy time is the self time of its spans: duration
   minus the part its child spans cover.  Written out once, at the end,
   as Chrome trace-event JSON. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  layer : string option;  (** [None] for grouping spans (cells, rows) *)
  start : float;
  mutable stop : float;
  mutable words : float;  (** allocated inside the span, children included *)
}

let spans : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span ?layer name f =
  let s =
    {
      id = !next_id;
      parent = (match !stack with p :: _ -> p.id | [] -> -1);
      name;
      layer;
      start = Proc.now ();
      stop = nan;
      words = allocated ();
    }
  in
  incr next_id;
  stack := s :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Proc.now ();
      s.words <- allocated () -. s.words;
      stack := List.tl !stack;
      spans := s :: !spans)
    f

type busy = { b_s : float; b_words : float }

(* Self time and self allocation per layer, over every recorded span. *)
let by_layer () : (string * busy) list =
  let child_time = Hashtbl.create 256 and child_words = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add child_time (s.stop -. s.start);
        add child_words s.words
      end)
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.layer with
      | None -> ()
      | Some layer ->
        let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
        let self_s = s.stop -. s.start -. get child_time
        and self_w = s.words -. get child_words in
        let prev =
          Option.value ~default:{ b_s = 0.0; b_words = 0.0 }
            (Hashtbl.find_opt acc layer)
        in
        Hashtbl.replace acc layer
          { b_s = prev.b_s +. self_s; b_words = prev.b_words +. self_w })
    !spans;
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])

let to_chrome () =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans in
  let us x = Json.Num (Float.round (x *. 1e6)) in
  List.rev_map
    (fun s ->
      Json.Obj
        [
          ("name", Json.Str s.name);
          ("cat", Json.Str (Option.value ~default:"group" s.layer));
          ("ph", Json.Str "X");
          ("ts", us (s.start -. t0));
          ("dur", us (s.stop -. s.start));
          ("pid", Json.Num 1.0);
          ("tid", Json.Num 1.0);
          ( "args",
            Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("parent", Json.Num (float_of_int s.parent));
                ("alloc_words", Json.Num s.words);
              ] );
        ])
    !spans
