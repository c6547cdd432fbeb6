module Make (F : Field.ORDERED_FIELD) = struct
  module F = F

  (* Coefficients lowest-degree first; canonical: no trailing zeros. *)
  type t = F.t array

  let zero = [||]

  let normalize (a : F.t array) : t =
    let n = Array.length a in
    let rec top i = if i >= 0 && F.is_zero a.(i) then top (i - 1) else i in
    let hi = top (n - 1) in
    if hi < 0 then [||] else if hi = n - 1 then a else Array.sub a 0 (hi + 1)

  let constant c = normalize [| c |]
  let one = constant F.one
  let var = normalize [| F.zero; F.one |]

  let of_list l = normalize (Array.of_list l)
  let to_list p = Array.to_list p

  let degree p = Array.length p - 1
  let is_zero p = Array.length p = 0
  let coeff p i = if i >= 0 && i < Array.length p then p.(i) else F.zero

  let leading p =
    if is_zero p then invalid_arg "Poly.leading: zero polynomial"
    else p.(Array.length p - 1)

  let equal p q =
    Array.length p = Array.length q && Array.for_all2 F.equal p q

  (* [enclose_into] of every coefficient, in order *)
  let enclose_coefs p =
    let c = Array.create_float (2 * Array.length p) in
    for j = 0 to Array.length p - 1 do
      F.enclose_into c (2 * j) p.(j)
    done;
    c

  let eval p x =
    (* Horner *)
    let acc = ref F.zero in
    for i = Array.length p - 1 downto 0 do
      acc := F.add (F.mul !acc x) p.(i)
    done;
    !acc

  let add p q =
    let n = max (Array.length p) (Array.length q) in
    normalize (Array.init n (fun i -> F.add (coeff p i) (coeff q i)))

  let neg p = Array.map F.neg p

  let sub p q =
    let n = max (Array.length p) (Array.length q) in
    normalize (Array.init n (fun i -> F.sub (coeff p i) (coeff q i)))

  let mul p q =
    if is_zero p || is_zero q then zero
    else begin
      let r = Array.make (Array.length p + Array.length q - 1) F.zero in
      Array.iteri
        (fun i pi ->
          if not (F.is_zero pi) then
            Array.iteri (fun j qj -> r.(i + j) <- F.add r.(i + j) (F.mul pi qj)) q)
        p;
      normalize r
    end

  let scale c p = normalize (Array.map (F.mul c) p)

  let derivative p =
    if Array.length p <= 1 then zero
    else normalize (Array.init (Array.length p - 1) (fun i -> F.mul (F.of_int (i + 1)) p.(i + 1)))

  let compose p q =
    (* Horner over polynomials *)
    let acc = ref zero in
    for i = Array.length p - 1 downto 0 do
      acc := add (mul !acc q) (constant p.(i))
    done;
    !acc

  let shift p c = compose p (of_list [ c; F.one ])

  let divmod a b =
    if is_zero b then raise Division_by_zero
    else begin
      let db = degree b and lb = leading b in
      let r = ref a and q = ref zero in
      while not (is_zero !r) && degree !r >= db do
        let dr = degree !r in
        let c = F.div (leading !r) lb in
        let shift_deg = dr - db in
        let term = normalize (Array.init (shift_deg + 1) (fun i -> if i = shift_deg then c else F.zero)) in
        q := add !q term;
        r := sub !r (mul term b)
      done;
      (!q, !r)
    end

  let monic p = if is_zero p then p else scale (F.div F.one (leading p)) p

  let rec gcd_aux a b =
    if is_zero b then monic a
    else gcd_aux b (monic (snd (divmod a b)))
  (* [monic] after each remainder keeps exact-rational coefficients small. *)

  let gcd a b = if is_zero a then monic b else gcd_aux a b

  let squarefree p =
    if degree p <= 1 then monic p
    else begin
      let g = gcd p (derivative p) in
      if degree g <= 0 then monic p else monic (fst (divmod p g))
    end

  let sign_at p x = F.compare (eval p x) F.zero

  let sign_jet p x =
    let rec go p =
      if is_zero p then 0
      else begin
        let s = sign_at p x in
        if s <> 0 then s else go (derivative p)
      end
    in
    go p

  let sign_at_pos_infinity p =
    if is_zero p then 0 else F.compare (leading p) F.zero

  let sign_at_neg_infinity p =
    if is_zero p then 0
    else begin
      let s = F.compare (leading p) F.zero in
      if degree p mod 2 = 0 then s else - s
    end

  let cauchy_bound p =
    if degree p <= 0 then F.one
    else begin
      let lb = leading p in
      let m = ref F.zero in
      for i = 0 to Array.length p - 2 do
        let r = F.div p.(i) lb in
        let a = if F.compare r F.zero < 0 then F.neg r else r in
        if F.compare a !m > 0 then m := a
      done;
      F.add F.one !m
    end

  let to_string p =
    if is_zero p then "0"
    else begin
      let b = Buffer.create 64 in
      for i = Array.length p - 1 downto 0 do
        if not (F.is_zero p.(i)) then begin
          if Buffer.length b > 0 then Buffer.add_string b " + ";
          if i = 0 then Buffer.add_string b (F.to_string p.(i))
          else begin
            if not (F.equal p.(i) F.one) then begin
              Buffer.add_string b (F.to_string p.(i));
              Buffer.add_char b '*'
            end;
            Buffer.add_char b 't';
            if i > 1 then begin
              Buffer.add_char b '^';
              Buffer.add_string b (string_of_int i)
            end
          end
        end
      done;
      Buffer.contents b
    end

  let pp fmt p = Format.pp_print_string fmt (to_string p)
end
