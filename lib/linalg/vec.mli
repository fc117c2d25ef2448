(** Dense float vectors.

    Thin wrappers over [float array] used by the optimizer. Operations
    ending in [_ip] mutate their first argument in place; all others
    allocate. Dimension mismatches raise [Invalid_argument]. *)

type t = float array

val zeros : int -> t
val copy : t -> t
val dim : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y]. *)

val axpy_into : float -> t -> t -> into:t -> unit
(** [axpy_into a x y ~into] writes [a*x + y] into [into] without
    allocating. [into] may alias [x] or [y]. Componentwise it performs
    exactly the same operations as {!axpy}, so results are
    bit-identical. *)

val sub_into : t -> t -> into:t -> unit
(** [sub_into a b ~into] writes [a - b] into [into] without
    allocating; bit-identical to {!sub}. [into] may alias [a] or
    [b]. *)

val dot : t -> t -> float
val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
val dist2 : t -> t -> float
(** Euclidean distance between two vectors. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val for_all2 : (float -> float -> bool) -> t -> t -> bool
val concat : t list -> t
val pp : Format.formatter -> t -> unit
