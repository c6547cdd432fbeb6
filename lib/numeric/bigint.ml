(* Sign-magnitude bignum with a small-integer fast path.

   [Small n] holds every value that fits OCaml's native [int]; [Big] holds
   the rest as base-2^30 little-endian limbs with no leading zero limb.
   The split is canonical — an int-fitting value is ALWAYS [Small] — so
   structural equality and [Hashtbl.hash] coincide with value equality
   (rationals built from these appear as hash-table keys downstream).
   Division is Knuth's Algorithm D; everything else is schoolbook.  The
   sweep workloads are overwhelmingly single-limb, so the [Small]/[Small]
   branches below are the exact backend's real inner loop. *)

let base_bits = 30
let base = 1 lsl base_bits (* 2^30 *)
let limb_mask = base - 1

type t = Small of int | Big of { sign : int; mag : int array }

let zero = Small 0
let one = Small 1
let minus_one = Small (-1)

(* |min_int| = 2^62 in limbs. *)
let mag_min_int () = [| 0; 0; 4 |]

(* Magnitude limbs of |n| for n <> 0 ([min_int] included). *)
let mag_of_abs n =
  if n = min_int then mag_min_int ()
  else begin
    let a = abs n in
    let rec count v k = if v = 0 then k else count (v lsr base_bits) (k + 1) in
    let k = count a 0 in
    let mag = Array.make k 0 in
    let v = ref a in
    for i = 0 to k - 1 do
      mag.(i) <- !v land limb_mask;
      v := !v lsr base_bits
    done;
    mag
  end

(* (sign, magnitude) view for the big-number code paths. *)
let repr = function
  | Small 0 -> (0, [||])
  | Small n -> ((if n < 0 then -1 else 1), mag_of_abs n)
  | Big { sign; mag } -> (sign, mag)

(* [Some v] when sign * mag fits a native [int]; mag has no leading zero. *)
let int_of_mag sign mag =
  match Array.length mag with
  | 0 -> Some 0
  | 1 -> Some (if sign < 0 then -mag.(0) else mag.(0))
  | 2 ->
    let v = (mag.(1) lsl base_bits) lor mag.(0) in
    Some (if sign < 0 then -v else v)
  | 3 ->
    if mag.(2) <= 3 then begin
      (* max_int = 3 * 2^60 + (2^30 - 1) * 2^30 + (2^30 - 1). *)
      let v = (((mag.(2) lsl base_bits) lor mag.(1)) lsl base_bits) lor mag.(0) in
      Some (if sign < 0 then -v else v)
    end
    else if sign < 0 && mag.(2) = 4 && mag.(1) = 0 && mag.(0) = 0 then Some min_int
    else None
  | _ -> None

(* Canonicalize: strip leading zero limbs, collapse to [Small] when the
   value fits. *)
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then Small 0
  else begin
    let mag = if hi = n - 1 then mag else Array.sub mag 0 (hi + 1) in
    if hi <= 2 then
      match int_of_mag sign mag with
      | Some v -> Small v
      | None -> Big { sign; mag }
    else Big { sign; mag }
  end

let is_zero = function Small 0 -> true | _ -> false
let sign = function Small n -> Stdlib.compare n 0 | Big b -> b.sign
let of_int n = Small n

(* Canonical form: a [Big] never fits an [int]. *)
let to_int = function Small n -> Some n | Big _ -> None

let to_int_exn = function
  | Small n -> n
  | Big _ -> invalid_arg "Bigint.to_int_exn: overflow"

(* Bit length of |n| ([min_int] included; 0 for 0): a fixed binary
   search over the 62 magnitude bits, no loop per bit. *)
let bits_of_int_abs n =
  if n = min_int then 63
  else begin
    let v = ref (abs n) and k = ref 0 in
    if !v lsr 32 <> 0 then (v := !v lsr 32; k := 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; k := !k + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; k := !k + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; k := !k + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; k := !k + 2);
    if !v lsr 1 <> 0 then (v := !v lsr 1; k := !k + 1);
    !k + !v
  end

(* Magnitude comparison. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare x y =
  match x, y with
  | Small a, Small b -> Stdlib.compare a b
  (* A [Big] magnitude strictly exceeds every [int]. *)
  | Small _, Big b -> if b.sign > 0 then -1 else 1
  | Big a, Small _ -> if a.sign > 0 then 1 else -1
  | Big a, Big b ->
    if a.sign <> b.sign then Stdlib.compare a.sign b.sign
    else if a.sign >= 0 then cmp_mag a.mag b.mag
    else cmp_mag b.mag a.mag

let equal x y = compare x y = 0

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  r

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let add_big (sx, mx) (sy, my) =
  if sx = 0 then normalize sy my
  else if sy = 0 then normalize sx mx
  else if sx = sy then normalize sx (add_mag mx my)
  else begin
    let c = cmp_mag mx my in
    if c = 0 then Small 0
    else if c > 0 then normalize sx (sub_mag mx my)
    else normalize sy (sub_mag my mx)
  end

let add x y =
  match x, y with
  | Small a, Small b ->
    let s = a + b in
    (* Overflow only when the operands agree in sign and the sum doesn't. *)
    if (a >= 0) <> (b >= 0) || (s >= 0) = (a >= 0) then Small s
    else add_big (repr x) (repr y)
  | _ -> add_big (repr x) (repr y)

let neg = function
  | Small n when n <> min_int -> Small (-n)
  | Small _ -> Big { sign = 1; mag = mag_min_int () } (* 2^62 > max_int *)
  | Big b -> Big { sign = -b.sign; mag = b.mag }

let abs = function
  | Small n when n >= 0 -> Small n
  | Small n when n <> min_int -> Small (-n)
  | Small _ -> Big { sign = 1; mag = mag_min_int () }
  | Big b as x -> if b.sign > 0 then x else Big { sign = 1; mag = b.mag }

let sub x y =
  match x, y with
  | Small a, Small b ->
    let d = a - b in
    if (a >= 0) = (b >= 0) || (d >= 0) = (a >= 0) then Small d
    else add_big (repr x) (repr (neg y))
  | _ -> add_big (repr x) (repr (neg y))

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land limb_mask;
          carry := s lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land limb_mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    r
  end

let mul_big (sx, mx) (sy, my) =
  if sx = 0 || sy = 0 then Small 0
  else normalize (sx * sy) (mul_mag mx my)

let small_lim = 1 lsl 31

let mul x y =
  match x, y with
  | Small a, Small b ->
    if a > -small_lim && a < small_lim && b > -small_lim && b < small_lim then
      Small (a * b) (* |a*b| <= (2^31 - 1)^2 < 2^62 *)
    else if
      a <> 0 && b <> 0 && a <> min_int && b <> min_int
      && bits_of_int_abs a + bits_of_int_abs b <= 62
    then Small (a * b) (* |a*b| < 2^62, so it fits *)
    else mul_big (repr x) (repr y)
  | _ -> mul_big (repr x) (repr y)

let mul_int x n = mul x (Small n)

(* Shift magnitude left by [k] bits. *)
let shl_mag a k =
  if Array.length a = 0 then [||]
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr base_bits
    done;
    r
  end

let shr_mag a k =
  let limbs = k / base_bits and bits = k mod base_bits in
  let la = Array.length a in
  if limbs >= la then [||]
  else begin
    let l = la - limbs in
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      let lo = a.(i + limbs) lsr bits in
      let hi =
        if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - bits)) land limb_mask
        else 0
      in
      r.(i) <- if bits = 0 then a.(i + limbs) else lo lor hi
    done;
    r
  end

let shift_left x k =
  if k < 0 then invalid_arg "Bigint.shift_left"
  else
    match x with
    | Small 0 -> x
    | _ when k = 0 -> x
    | Small n when n <> min_int && bits_of_int_abs n + k <= 62 -> Small (n lsl k)
    | _ ->
      let s, m = repr x in
      normalize s (shl_mag m k)

(* Truncates the magnitude toward zero: sign(x) * (|x| lsr k). *)
let shift_right x k =
  if k < 0 then invalid_arg "Bigint.shift_right"
  else
    match x with
    | Small 0 -> x
    | _ when k = 0 -> x
    | Small n when n <> min_int ->
      if k >= 62 then Small 0
      else begin
        let m = Stdlib.abs n lsr k in
        Small (if n < 0 then -m else m)
      end
    | _ ->
      let s, m = repr x in
      normalize s (shr_mag m k)

let num_bits = function
  | Small n -> bits_of_int_abs n
  | Big b ->
    let n = Array.length b.mag in
    (n - 1) * base_bits + bits_of_int_abs b.mag.(n - 1)

let two53 = 1 lsl 53

(* A [Big] never fits an [int], let alone 53 bits. *)
let fits_mantissa = function Small n -> n > - two53 && n < two53 | Big _ -> false

let is_power_of_two = function
  | Small n -> n > 0 && n land (n - 1) = 0
  | Big { sign; mag } ->
    let top = Array.length mag - 1 in
    sign > 0
    && mag.(top) land (mag.(top) - 1) = 0
    && (let rec low_zero i = i >= top || (mag.(i) = 0 && low_zero (i + 1)) in low_zero 0)

(* Divide magnitude by a single limb; returns (quotient, remainder). *)
let divmod_mag_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth Algorithm D on magnitudes: |a| / |b| with Array.length b >= 2.
   Returns (quotient, remainder) magnitudes. *)
let divmod_mag a b =
  let lb = Array.length b in
  (* Normalize so the top limb of b has its high bit set. *)
  let shift = base_bits - bits_of_int_abs b.(lb - 1) in
  let u = shl_mag a shift in
  (* keep an explicit extra top limb on u *)
  let v = shl_mag b shift in
  let v =
    (* drop possible leading zero introduced by shl_mag *)
    let n = Array.length v in
    let rec top i = if i >= 0 && v.(i) = 0 then top (i - 1) else i in
    Array.sub v 0 (top (n - 1) + 1)
  in
  let n = Array.length v in
  let m =
    (* significant limbs of u *)
    let lu = Array.length u in
    let rec top i = if i >= 0 && u.(i) = 0 then top (i - 1) else i in
    top (lu - 1) + 1
  in
  if m < n then ([||], shr_mag a 0)
  else begin
    (* Ensure a zero sentinel limb at index m. *)
    let u =
      if m + 1 <= Array.length u then Array.sub u 0 (m + 1)
      else begin
        let u' = Array.make (m + 1) 0 in
        Array.blit u 0 u' 0 (Array.length u);
        u'
      end
    in
    let q = Array.make (m - n + 1) 0 in
    let vn1 = v.(n - 1) in
    let vn2 = if n >= 2 then v.(n - 2) else 0 in
    for j = m - n downto 0 do
      (* Estimate qhat from top two limbs of current u against vn1. *)
      let ujn = u.(j + n) and ujn1 = u.(j + n - 1) in
      let num = (ujn lsl base_bits) lor ujn1 in
      let qhat = ref (num / vn1) and rhat = ref (num mod vn1) in
      let ujn2 = u.(j + n - 2) in
      let continue_test = ref true in
      while !continue_test do
        if !qhat >= base || !qhat * vn2 > (!rhat lsl base_bits) lor ujn2 then begin
          decr qhat;
          rhat := !rhat + vn1;
          if !rhat >= base then continue_test := false
        end
        else continue_test := false
      done;
      (* Multiply-subtract qhat * v from u[j .. j+n]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr base_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin u.(i + j) <- d + base; borrow := 1 end
        else begin u.(i + j) <- d; borrow := 0 end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        u.(j + n) <- d + base;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry2 in
          u.(i + j) <- s land limb_mask;
          carry2 := s lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry2) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = shr_mag (Array.sub u 0 n) shift in
    (q, r)
  end

let divmod_big (sa, ma) (sb, mb) =
  if sb = 0 then raise Division_by_zero
  else if sa = 0 then (Small 0, Small 0)
  else begin
    let c = cmp_mag ma mb in
    if c < 0 then (Small 0, normalize sa ma)
    else if Array.length mb = 1 then begin
      let q, r = divmod_mag_limb ma mb.(0) in
      (normalize (sa * sb) q, if r = 0 then Small 0 else Small (if sa < 0 then -r else r))
    end
    else begin
      let q, r = divmod_mag ma mb in
      (normalize (sa * sb) q, normalize sa r)
    end
  end

let divmod a b =
  match a, b with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y ->
    if x = min_int && y = -1 then (Big { sign = 1; mag = mag_min_int () }, Small 0)
    else (Small (x / y), Small (x mod y))
  | _ -> divmod_big (repr a) (repr b)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* a, b >= 0. *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)
let rec gcd_aux a b = if is_zero b then a else gcd_aux b (rem a b)

let gcd a b =
  match a, b with
  | Small x, Small y when x <> min_int && y <> min_int ->
    Small (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ -> gcd_aux (abs a) (abs b)

(* Quadratic residues modulo 64 · 63 · 65 · 11: a square is a residue
   modulo each factor, and about 99% of non-squares fail one of them. *)
let residue_modulus = 64 * 63 * 65 * 11

let residues m =
  let a = Array.make m false in
  for i = 0 to m - 1 do a.(i * i mod m) <- true done;
  a

let sq64 = residues 64 and sq63 = residues 63 and sq65 = residues 65 and sq11 = residues 11

(* floor (sqrt n) for n >= 0: from the float root for an int (exact
   after the two corrections, as (s + 1)^2 fits an int below 2^62), and
   otherwise Newton's iteration from 2^ceil(bits / 2), which is above the
   root and decreases to it. *)
let isqrt n =
  match n with
  | Small k when k < 1 lsl 62 ->
    let s = ref (int_of_float (Float.sqrt (float_of_int k))) in
    while !s * !s > k do decr s done;
    while (!s + 1) * (!s + 1) <= k do incr s done;
    Small !s
  | _ ->
    let rec go x =
      let y = shift_right (add x (div n x)) 1 in
      if compare y x >= 0 then x else go y
    in
    go (shift_left one ((num_bits n + 1) / 2))

let is_square n =
  sign n >= 0
  && begin
    let r = match rem n (Small residue_modulus) with Small r -> r | Big _ -> assert false in
    sq64.(r mod 64) && sq63.(r mod 63) && sq65.(r mod 65) && sq11.(r mod 11)
    && (let s = isqrt n in equal (mul s s) n)
  end

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow"
  else begin
    let rec go acc b k =
      if k = 0 then acc
      else if k land 1 = 1 then go (mul acc b) (mul b b) (k lsr 1)
      else go acc (mul b b) (k lsr 1)
    in
    go one x k
  end

let to_float = function
  | Small n -> float_of_int n (* single correctly-rounded conversion *)
  | Big b ->
    (* Correctly rounded: take the top 60 bits h = floor(|x| / 2^e), OR any
       dropped bit into bit 0 of h (strictly below the rounding position),
       and let the one float_of_int conversion do the round-to-nearest-even.
       ldexp by a power of two is exact (or overflows to infinity). *)
    let mag = b.mag in
    let n = Array.length mag in
    let nb = (n - 1) * base_bits + bits_of_int_abs mag.(n - 1) in
    let e = nb - 60 in
    (* Big implies nb >= 63, so e > 0 and h has exactly 60 bits. *)
    let top = shr_mag mag e in
    let h = ref 0 in
    for i = Array.length top - 1 downto 0 do
      h := (!h lsl base_bits) lor top.(i)
    done;
    let sticky = ref false in
    let limbs = e / base_bits and bits = e mod base_bits in
    for i = 0 to limbs - 1 do
      if mag.(i) <> 0 then sticky := true
    done;
    if bits > 0 && mag.(limbs) land ((1 lsl bits) - 1) <> 0 then sticky := true;
    let h = if !sticky then !h lor 1 else !h in
    let f = Float.ldexp (float_of_int h) e in
    if b.sign < 0 then -.f else f

let billion = Small 1_000_000_000

let to_string = function
  | Small n -> string_of_int n
  | Big _ as x ->
    let buf = Buffer.create 32 in
    let rec chunks v acc =
      if is_zero v then acc
      else begin
        let q, r = divmod v billion in
        chunks q (to_int_exn r :: acc)
      end
    in
    if sign x < 0 then Buffer.add_char buf '-';
    (match chunks (abs x) [] with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty"
  else begin
    let negative = s.[0] = '-' in
    let start = if negative || s.[0] = '+' then 1 else 0 in
    if start >= n then invalid_arg "Bigint.of_string: no digits";
    let acc = ref zero in
    let ten = Small 10 in
    for i = start to n - 1 do
      let c = s.[i] in
      if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
      acc := add (mul !acc ten) (Small (Char.code c - Char.code '0'))
    done;
    if negative then neg !acc else !acc
  end

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Canonical representation: structural hashing is value hashing. *)
let hash x = Hashtbl.hash x

let pp fmt x = Format.pp_print_string fmt (to_string x)
