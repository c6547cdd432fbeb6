(** Polynomials with exact rational coefficients — the coefficient domain of
    every exact computation in the sweep engine. *)

include Poly.Make (Field.Rat_field)

module Z = Moq_numeric.Bigint
module Q = Moq_numeric.Rat

(* The sign of p(a/b), b > 0, with no gcd: the rational Horner of
   [Poly.Make] normalises (one bigint gcd) after every [Q.add] and
   [Q.mul], and every exact sign test in the sweep is one of these.
   Horner runs instead on b^n·p(a/b) = Σ c_i·a^i·b^(n-i), which has the
   sign of p(a/b), carried as an unreduced fraction h / m with m > 0 that
   collects the coefficients' denominators.  With c_k = n_k/d_k, step k
   is h := h·a·d_k + n_k·b^(n-k)·m, then m := m·d_k; [bm] carries
   b^(n-k)·m. *)
let sign_at p x =
  let n = degree p in
  if n < 0 then 0
  else begin
    let a = Q.num x and b = Q.den x in
    let b_one = Z.equal b Z.one in
    let c = coeff p n in
    let h = ref (Q.num c) and bm = ref (Q.den c) in
    for k = n - 1 downto 0 do
      let c = coeff p k in
      let nk = Q.num c and dk = Q.den c in
      let frac = not (Z.equal dk Z.one) in
      if not b_one then bm := Z.mul !bm b;
      h := Z.mul !h a;
      if frac then h := Z.mul !h dk;
      if not (Z.is_zero nk) then h := Z.add !h (Z.mul nk !bm);
      if frac then bm := Z.mul !bm dk
    done;
    Z.sign !h
  end

let rec sign_jet p x =
  if is_zero p then 0
  else match sign_at p x with 0 -> sign_jet (derivative p) x | s -> s
