(** Minimal JSON: a document type with a compact emitter and a parser.

    Strings are byte strings.  The emitter escapes the double quote, the
    backslash and the control characters below 0x20 (newline, carriage
    return and tab by name, the rest as a four-digit unicode escape);
    bytes >= 0x80 are written raw, so every OCaml string
    round-trips through {!to_string} and {!of_string}.  Integral floats
    print with a trailing [.0]; non-finite floats print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no whitespace. *)

val output : out_channel -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Numbers without a fraction or exponent parse as [Int].
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for a missing field or a non-object. *)
