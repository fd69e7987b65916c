(** Top-level Datalog engine facade: compile once, load facts, evaluate,
    inspect results.

    {[
      let program = Parser.parse_string "..." in
      let engine = Engine.create ~kind:Storage.Btree program in
      Engine.add_fact engine "edge" [| 1; 2 |];
      Pool.with_pool 8 (fun pool -> Engine.run engine pool);
      Printf.printf "paths: %d\n" (Engine.relation_size engine "path")
    ]} *)

type t

val create :
  ?kind:Storage.kind ->
  ?instrument:bool ->
  ?profile:bool ->
  ?check_phases:bool ->
  Ast.program ->
  t
(** Compiles the program (resolution, safety checks, stratification, join
    planning).  [kind] selects the relation storage (default [Btree]);
    [instrument] enables the Table 2 operation counters; [profile] records
    per-rule evaluation times; [check_phases] asserts the two-phase access
    discipline on every index during evaluation (all default [false]).
    @raise Plan.Compile_error / @raise Stratify.Not_stratifiable *)

val add_fact : t -> string -> int array -> unit
(** Queue an input tuple; must be called before {!run}.
    @raise Invalid_argument on unknown predicate, wrong arity, or after run. *)

val add_facts : t -> string -> int array list -> unit
(** Queue a batch of tuples at once; like {!add_fact_run} on the list
    converted to an array. *)

val add_fact_run : t -> string -> int array array -> unit
(** Queue a whole run of tuples in one chunk.  Chunks bypass the per-fact
    queue: at {!run} they are blitted directly into the per-predicate fact
    group that feeds the batch write path ({!Relation.merge_batch}), so bulk
    loaders ({!Dl_io}) avoid per-tuple queuing entirely.  The array is
    retained until {!run}; callers must not mutate it (or its tuples)
    afterwards.
    @raise Invalid_argument on unknown predicate, wrong arity, or after
    run. *)

val intern : t -> string -> int
(** Intern a symbol, for building facts that mix numbers and symbols. *)

val symbol_name : t -> int -> string option

val symbol_id : t -> string -> int option
(** The id of a symbol already interned, without interning it. *)

val run : t -> Pool.t -> unit
(** Evaluate to fixed point.  May be called once.
    @raise Invalid_argument on repeated calls. *)

val has_run : t -> bool

val relation : t -> string -> Relation.t
(** The evaluated relation itself (after {!run}), for phase-typed access:
    open {!Relation.begin_read} handles to serve concurrent queries over
    the fixed point — the query server's reader phases go through here.
    @raise Invalid_argument on unknown relation or before run. *)

val relation_size : t -> string -> int
val iter_relation : t -> string -> (int array -> unit) -> unit
val relation_list : t -> string -> int array list
(** Sorted in the relation's natural order (storage-dependent for hash
    kinds). *)

val output_relations : t -> string list
val input_relations : t -> string list
val relations : t -> string list

val relation_arity : t -> string -> int
(** @raise Invalid_argument on unknown relation. *)

val iterations : t -> int
(** Fixed-point rounds performed (after {!run}). *)

val stats : t -> Dl_stats.snapshot option
(** Operation counters, when created with [~instrument:true]. *)

val hint_rate : t -> float option
(** Fraction of hinted operations that hit across all relations (after
    {!run}); [None] when the storage kind has no hints.  Reproduces the
    section 4.3 hint hit-rate statistics. *)

val tree_shapes : t -> (string * Tree_shape.t) list
(** Structural report of every non-empty B-tree-backed relation, keyed by
    relation name (after {!run}); empty for non-B-tree storage kinds. *)

val hint_run_hist : t -> int array option
(** Hint-locality distribution (log2-bucketed hit-run lengths) summed over
    every cursor of every relation; [None] for unhinted storage kinds. *)

val rule_profile : t -> Eval.rule_profile list
(** Per rule-version cumulative evaluation times, hottest first (after
    {!run}); empty unless created with [~profile:true]. *)

val kind : t -> Storage.kind
