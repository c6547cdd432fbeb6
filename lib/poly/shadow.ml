(* Float-interval shadows of exact rational polynomials.

   The filtered backend evaluates signs on these outward-rounded interval
   coefficients first and only falls back to exact arithmetic when the
   result straddles zero.  The sweep's comparisons and crossing searches
   read the curves' own shadows instead ({!Piecewise_intf.S.view}); these
   serve polynomials built outside a curve: an exact path's difference
   and its derivatives, and callers that pass their own polynomial.  Shadows are memoized: the sweep evaluates the
   same handful of difference curves at many instants, and Qpoly values are
   immutable with canonical (hence hashable) rational coefficients, so the
   polynomial itself is a sound memo key.

   The memo is a direct-mapped table of [bound] slots, each holding one
   immutable (polynomial, shadow) pair.  At most [bound] polynomials are
   retained, so adversarial workloads (every update a fresh curve) cannot
   leak.  It takes no lock: the server's query threads sweep beside its
   commit thread, and a slot write is a single pointer store, so a racing
   reader sees either the old pair or the new one — at worst a miss,
   never a shadow of another polynomial. *)

module Q = Moq_numeric.Rat
module IV = Moq_numeric.Fintval

type entry = { key : Qpoly.t; shadow : IV.t array }

(* A power of two, so a hash maps to a slot by masking.  Small on
   purpose: past queries over long histories build polynomials with large
   rational coefficients, and every retained one adds to the server's
   peak memory, while a larger table made no sweep measurably faster. *)
let bound = 64

(* The zero polynomial's shadow is the empty array, so the initial slots
   are already correct entries. *)
let empty = { key = Qpoly.zero; shadow = [||] }
let slots = Array.make bound empty

let of_qpoly (p : Qpoly.t) : IV.t array =
  let i = Hashtbl.hash p land (bound - 1) in
  let e = slots.(i) in
  if e.key == p || Qpoly.equal e.key p then e.shadow
  else begin
    let shadow = Array.of_list (List.map IV.of_rat (Qpoly.to_list p)) in
    slots.(i) <- { key = p; shadow };
    shadow
  end

let retained () =
  Array.fold_left (fun n e -> if e == empty then n else n + 1) 0 slots

(* Interval enclosure of p(x) for any real x in the interval. *)
let eval_at (p : Qpoly.t) (x : IV.t) : IV.t = IV.eval (of_qpoly p) x
