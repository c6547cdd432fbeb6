module Q = Moq_numeric.Rat
module B = Moq_numeric.Bigint
module Qvec = Moq_geom.Vec.Qvec

(* ---------------------------------------------------------------- *)
(* Rendering.  Every writer appends to a [Buffer.t]; integers go through
   [add_int], which writes the digits itself: [string_of_int] and
   [Printf] interpret a format string on every call, and a checkpoint of
   10^4 objects prints about 10^5 integers. *)

(* The digits of [-n], for [n <= 0]: staying on the negative side covers
   [min_int], whose magnitude is not an [int]. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let add_bigint b x =
  match B.to_int x with
  | Some n -> add_int b n
  | None -> Buffer.add_string b (B.to_string x)

(* The text of [Q.to_string]: "p", or "p/q" when q <> 1. *)
let add_q b x =
  add_bigint b (Q.num x);
  if not (B.equal (Q.den x) B.one) then begin
    Buffer.add_char b '/';
    add_bigint b (Q.den x)
  end

let add_vec b v =
  for i = 0 to Qvec.dim v - 1 do
    Buffer.add_char b ' ';
    add_q b (Qvec.get v i)
  done

let add_header b db =
  Buffer.add_string b "moddb 1 ";
  add_int b (Mobdb.dim db);
  Buffer.add_char b ' ';
  add_q b (Mobdb.last_update db);
  Buffer.add_char b '\n'

let add_object b o tr =
  Buffer.add_string b "object ";
  add_int b o;
  (match Trajectory.death tr with
   | Some d ->
     Buffer.add_string b " death ";
     add_q b d
   | None -> ());
  Buffer.add_char b '\n';
  List.iter
    (fun (p : Trajectory.piece) ->
      Buffer.add_string b "piece ";
      add_q b p.Trajectory.start;
      add_vec b p.Trajectory.a;
      add_vec b p.Trajectory.b;
      Buffer.add_char b '\n')
    (Trajectory.pieces tr)

let render size add =
  let b = Buffer.create size in
  add b;
  Buffer.contents b

let header_line db = render 32 (fun b -> add_header b db)
let object_lines o tr = render 128 (fun b -> add_object b o tr)

let db_to_string db =
  render 1024 (fun b ->
      add_header b db;
      Mobdb.iter (add_object b) db)

let update_to_line u =
  render 64 (fun b ->
      let head verb oid tau =
        Buffer.add_string b verb;
        add_int b oid;
        Buffer.add_char b ' ';
        add_q b tau
      in
      match u with
      | Update.New { oid; tau; a; b = pos } ->
        head "new " oid tau;
        add_vec b a;
        add_vec b pos
      | Update.Chdir { oid; tau; a } ->
        head "chdir " oid tau;
        add_vec b a
      | Update.Terminate { oid; tau } -> head "terminate " oid tau)

let updates_to_string ~dim us =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "updates 1 %d\n" dim);
  List.iter
    (fun u ->
      Buffer.add_string b (update_to_line u);
      Buffer.add_char b '\n')
    us;
  Buffer.contents b

(* ---------------------------------------------------------------- *)

exception Parse of int * string

let fail line msg = raise (Parse (line, msg))

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Only parse-shaped failures become [Parse]; resource exhaustion
   (Out_of_memory, Stack_overflow) must keep propagating. *)
let rat line s =
  try Q.of_string s
  with Invalid_argument _ | Failure _ | Division_by_zero -> fail line ("bad rational " ^ s)

let int_ line s =
  try int_of_string s with Failure _ -> fail line ("bad integer " ^ s)

let dim_ line s =
  let d = int_ line s in
  if d < 1 then fail line (Printf.sprintf "dimension must be >= 1, got %d" d) else d

let vec line ws = Qvec.of_list (List.map (rat line) ws)

let split_n line n l =
  let rec go k acc rest =
    if k = 0 then (List.rev acc, rest)
    else begin
      match rest with
      | x :: rest -> go (k - 1) (x :: acc) rest
      | [] -> fail line "too few fields"
    end
  in
  go n [] l

let lines_of s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && not (String.length l > 0 && l.[0] = '#'))

let db_of_string s =
  try
    match lines_of s with
    | [] -> Error "empty input"
    | (hline, header) :: rest ->
      (match words header with
       | [ "moddb"; "1"; d; tau ] ->
         let dim = dim_ hline d in
         let tau = rat hline tau in
         (* group: object line followed by its piece lines *)
         let rec objects acc = function
           | (l, line) :: rest when String.length line >= 6 && String.sub line 0 6 = "object" ->
             let oid, death =
               match words line with
               | [ "object"; o ] -> (int_ l o, None)
               | [ "object"; o; "death"; d ] -> (int_ l o, Some (rat l d))
               | _ -> fail l "malformed object line"
             in
             let rec pieces acc rest =
               match rest with
               | (l', line') :: rest' when String.length line' >= 5 && String.sub line' 0 5 = "piece" ->
                 (match words line' with
                  | "piece" :: fields ->
                    (match fields with
                     | start :: coords when List.length coords = 2 * dim ->
                       let start = rat l' start in
                       (match acc with
                        | (prev : Trajectory.piece) :: _ ->
                          let c = Q.compare start prev.Trajectory.start in
                          if c = 0 then
                            fail l' ("duplicate piece start time " ^ Q.to_string start)
                          else if c < 0 then
                            fail l' ("piece start time " ^ Q.to_string start
                                     ^ " not after previous piece")
                        | [] -> ());
                       let a_ws, b_ws = split_n l' dim coords in
                       pieces
                         ({ Trajectory.start; a = vec l' a_ws; b = vec l' b_ws }
                          :: acc)
                         rest'
                     | _ -> fail l' "piece arity mismatch")
                  | _ -> fail l' "malformed piece line")
               | rest' -> (List.rev acc, rest')
             in
             let ps, rest = pieces [] rest in
             if ps = [] then fail l "object with no pieces"
             else begin
               let tr =
                 try Trajectory.of_pieces ?death ps
                 with Invalid_argument m -> fail l m
               in
               objects ((oid, tr) :: acc) rest
             end
           | (l, _) :: _ -> fail l "expected an object line"
           | [] -> List.rev acc
         in
         let objs = objects [] rest in
         let db =
           List.fold_left
             (fun db (o, tr) ->
               try Mobdb.add_initial db o tr with Invalid_argument m -> fail hline m)
             (Mobdb.empty ~dim ~tau) objs
         in
         Ok db
       | _ -> Error "expected 'moddb 1 <dim> <tau>' header")
  with Parse (l, m) -> Error (Printf.sprintf "line %d: %s" l m)

(* One update line; raises [Parse] with the supplied line number. *)
let parse_update_line ~dim (l, line) =
  match words line with
  | "new" :: o :: tau :: coords when List.length coords = 2 * dim ->
    let a_ws, b_ws = split_n l dim coords in
    Update.New { oid = int_ l o; tau = rat l tau; a = vec l a_ws; b = vec l b_ws }
  | "chdir" :: o :: tau :: coords when List.length coords = dim ->
    Update.Chdir { oid = int_ l o; tau = rat l tau; a = vec l coords }
  | [ "terminate"; o; tau ] -> Update.Terminate { oid = int_ l o; tau = rat l tau }
  | _ -> fail l "malformed update line"

let update_of_line ~dim s =
  if dim < 1 then Error "dimension must be >= 1"
  else begin
    try Ok (parse_update_line ~dim (1, String.trim s))
    with Parse (_, m) -> Error m
  end

let updates_of_string s =
  try
    match lines_of s with
    | [] -> Error "empty input"
    | (hline, header) :: rest ->
      (match words header with
       | [ "updates"; "1"; d ] ->
         let dim = dim_ hline d in
         Ok (List.map (parse_update_line ~dim) rest)
       | _ -> Error "expected 'updates 1 <dim>' header")
  with Parse (l, m) -> Error (Printf.sprintf "line %d: %s" l m)

let write_file path contents =
  let oc = open_out path in
  try
    output_string oc contents;
    close_out oc
  with e ->
    close_out_noerr oc;
    raise e

let read_file path =
  let ic = open_in path in
  try
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with e ->
    close_in_noerr ic;
    raise e

let save_db db path = write_file path (db_to_string db)
let load_db path = db_of_string (read_file path)
let save_updates ~dim us path = write_file path (updates_to_string ~dim us)
let load_updates path = updates_of_string (read_file path)
