(** Structured non-finite detection for the optimisation stack.

    Objective or gradient evaluations that produce NaN or infinity used
    to propagate silently through the iterative solvers, which would
    then "converge" on garbage. Every evaluation entering
    {!Projected_gradient} now passes through these checks and raises
    {!Non_finite} with the offending quantity named, so the
    scheduling layer can turn it into a structured solver error instead
    of a wrong schedule. *)

exception Non_finite of string
(** Raised when an objective value or gradient component is NaN or
    infinite. The payload names the quantity (e.g.
    ["objective at x0 is nan"], ["gradient.(3) is inf"]). *)

val finite : where:string -> float -> float
(** [finite ~where x] is [x] if it is finite; raises {!Non_finite}
    mentioning [where] otherwise. *)

val finite_vec : where:string -> float array -> float array
(** [finite_vec ~where v] is [v] if every component is finite; raises
    {!Non_finite} naming the first offending index otherwise. *)
