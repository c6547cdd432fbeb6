(* Slicing-by-8: [tables.(k * 256 + n)] is the CRC register after byte [n]
   followed by [k] zero bytes, so eight table lookups fold eight input
   bytes at once instead of chaining eight dependent steps.  Built once at
   start-up and never written again. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let init = 0xFFFFFFFF
let finish crc = crc lxor 0xFFFFFFFF

(* [update] keeps every index a byte (0..255) plus [k * 256], [k <= 7],
   and every [byte] position inside the range it checked. *)
let[@inline] t k n = Array.unsafe_get tables ((k * 256) + n)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let c = ref crc and i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let j = !i and r = !c in
    c :=
      t 7 (byte s j lxor (r land 0xff))
      lxor t 6 (byte s (j + 1) lxor ((r lsr 8) land 0xff))
      lxor t 5 (byte s (j + 2) lxor ((r lsr 16) land 0xff))
      lxor t 4 (byte s (j + 3) lxor (r lsr 24))
      lxor t 3 (byte s (j + 4))
      lxor t 2 (byte s (j + 5))
      lxor t 1 (byte s (j + 6))
      lxor t 0 (byte s (j + 7));
    i := j + 8
  done;
  for j = !i to pos + len - 1 do
    c := t 0 ((!c lxor byte s j) land 0xff) lxor (!c lsr 8)
  done;
  !c

let string s = finish (update init s 0 (String.length s))

let hex_digit d = String.unsafe_get "0123456789abcdef" d

let to_hex c =
  String.init 8 (fun i -> hex_digit ((c lsr (28 - (4 * i))) land 0xf))

(* Strict inverse of [to_hex]: exactly 8 lowercase hex digits.  A looser
   parse (e.g. [int_of_string "0x.."]) would accept case-flipped digits
   that denote the same value, so single-bit corruption of the CRC text
   itself could go undetected. *)
let of_hex s =
  if String.length s <> 8 then None
  else
    let ok = ref true in
    let v = ref 0 in
    String.iter
      (fun c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | _ ->
            ok := false;
            0
        in
        v := (!v lsl 4) lor d)
      s;
    if !ok then Some !v else None
