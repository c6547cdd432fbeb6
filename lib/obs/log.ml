(* Leveled structured logger to stderr.  One process-global configuration
   (level, format) keeps call sites down to [Log.info "msg"] or
   [Log.warn ~fields:[...] "msg"]; a mutex serializes emission so lines
   from session/monitor/repl threads never interleave.  Text mode renders
   `TIMESTAMP LEVEL msg key=value ...`; JSON mode renders one JSON object
   per line (`--log-json`), suitable for shipping to a log collector. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | other -> Error (Printf.sprintf "unknown log level %S (debug|info|warn|error)" other)

let cur_level = ref Info
let json_mode = ref false
let m = Mutex.create ()

let set_level l = cur_level := l
let set_json b = json_mode := b
let enabled l = level_rank l >= level_rank !cur_level

let timestamp now =
  let tm = Unix.gmtime now in
  let ms = int_of_float (Float.rem now 1.0 *. 1000.0) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (max 0 (min 999 ms))

(* Unquoted text rendering for simple field values; anything with spaces or
   specials falls back to the JSON string form so lines stay parseable. *)
let field_text = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Json.float_repr f
  | Json.Str s ->
    let plain =
      s <> ""
      && String.for_all
           (fun c -> (c >= '!' && c <= '~') && c <> '"' && c <> '\\' && c <> '=')
           s
    in
    if plain then s else Json.to_string (Json.Str s)
  | (Json.List _ | Json.Obj _) as j -> Json.to_string j

let emit l ?(fields = []) msg =
  if enabled l then begin
    let now = Unix.gettimeofday () in
    let line =
      if !json_mode then
        Json.to_string
          (Json.Obj
             (("ts", Json.Str (timestamp now))
              :: ("level", Json.Str (level_name l))
              :: ("msg", Json.Str msg)
              :: fields))
      else begin
        let b = Buffer.create 96 in
        Buffer.add_string b (timestamp now);
        Buffer.add_char b ' ';
        Buffer.add_string b (String.uppercase_ascii (level_name l));
        Buffer.add_char b ' ';
        Buffer.add_string b msg;
        List.iter
          (fun (k, v) ->
            Buffer.add_char b ' ';
            Buffer.add_string b k;
            Buffer.add_char b '=';
            Buffer.add_string b (field_text v))
          fields;
        Buffer.contents b
      end
    in
    Mutex.lock m;
    (try
       output_string stderr line;
       output_char stderr '\n';
       flush stderr
     with _ -> ());
    Mutex.unlock m
  end

let debug ?fields msg = emit Debug ?fields msg
let info ?fields msg = emit Info ?fields msg
let warn ?fields msg = emit Warn ?fields msg
let error ?fields msg = emit Error ?fields msg
