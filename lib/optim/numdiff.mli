(** Numerical differentiation.

    Used to cross-check hand-written gradients in tests and as a
    fallback when a problem supplies no analytic gradient. *)

val gradient : ?h:float -> f:(float array -> float) -> float array -> float array
(** [gradient ~f x] approximates the gradient of [f] at [x] with central
    differences of step [h] (default [1e-6] scaled by coordinate
    magnitude). [x] is not modified. Raises {!Guard.Non_finite} when an
    evaluation of [f] returns NaN or infinity. *)
