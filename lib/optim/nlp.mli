(** Non-linear program description.

    A problem has the shape

    {v
      minimise    f(x)
      subject to  g_i(x) <= 0        (inequality constraints)
                  x in S             (set with cheap projection)
    v}

    Equality constraints are expressed as pairs of inequalities or,
    preferably, folded into the projection (the scheduling NLPs put the
    per-instance workload-sum equalities in the projection as simplex
    blocks).

    Constraint gradients use an accumulation interface so that sparse
    constraints (the scheduling NLPs have thousands of 2–3-coefficient
    linear constraints) cost O(nnz), not O(dim), inside the solver. *)

type constraint_ = {
  name : string;  (** for diagnostics *)
  value : Lepts_linalg.Vec.t -> float;  (** g(x); feasible iff <= 0 *)
  add_gradient : x:Lepts_linalg.Vec.t -> scale:float -> into:Lepts_linalg.Vec.t -> unit;
      (** [add_gradient ~x ~scale ~into] performs
          [into <- into + scale * grad g(x)]. *)
}

type t = {
  dim : int;
  objective : Lepts_linalg.Vec.t -> float;
  gradient : Lepts_linalg.Vec.t -> Lepts_linalg.Vec.t;
  inequalities : constraint_ list;
  project : Lepts_linalg.Vec.t -> Lepts_linalg.Vec.t;
}

val linear_constraint :
  name:string -> coeffs:(int * float) list -> bound:float -> constraint_
(** [linear_constraint ~coeffs ~bound] is the constraint
    [sum_i c_i * x_i <= bound] written with a sparse coefficient
    list. *)

val max_violation : t -> Lepts_linalg.Vec.t -> float
(** Largest positive constraint value at [x] (0 when feasible). *)
