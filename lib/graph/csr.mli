(** Compressed-sparse-row graphs: the large-n twin of {!Graph}.

    {!Graph.t} stores adjacency as an n×n bitset matrix — word-parallel
    intersections for the branch-and-bound solver, but Θ(n²/62) words of
    memory and Θ(n) per row scan, which tops out around 10³–10⁴ nodes.
    This module stores the same vertex-weighted undirected graphs in CSR
    form: one offsets array of length [n+1] and one neighbors array of
    length [2m], each row sorted ascending.  Memory is O(n + m) and a
    row scan is O(degree), so the CONGEST runtime and the gadget
    builders reach n in the 10⁵–10⁶ range (see docs/PERF.md).

    A CSR graph is immutable once built: construct through {!Builder}
    from an edge list, through {!of_rows} when every row is known in
    closed form (the gadget families), or convert with {!of_graph}; then
    share freely.  Conversion both ways is total and exact —
    [to_graph (of_graph g)] equals [g] up to labels, and every accessor
    agrees with its {!Graph} counterpart; [test/test_csr.ml] pins that
    equivalence property-by-property.

    Node labels are materialized lazily: a fresh CSR graph answers
    {!label} with the node index without allocating n strings. *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph := t

  type t
  (** A mutable edge accumulator.  Node count and weights are fixed at
      creation; edges arrive in any order, duplicates are deduplicated
      and self-loops rejected exactly as in {!Graph.add_edge}. *)

  val create : ?default_weight:int -> int -> t
  (** [create n] starts an edgeless builder on [n] nodes, all weights
      [default_weight] (default [1]).  Raises [Invalid_argument] when
      [n < 0] or the weight is [< 0]. *)

  val add_edge : t -> int -> int -> unit
  (** Queue the undirected edge [{u,v}].  Idempotent at {!finish} time.
      Raises [Invalid_argument] on out-of-range nodes or when [u = v]. *)

  val set_weight : t -> int -> int -> unit
  (** Raises [Invalid_argument] on negative weights. *)

  val set_label : t -> int -> string -> unit

  val finish :
    ?shard:(lo:int -> hi:int -> (int -> int -> unit) -> unit) -> t -> graph
  (** Freeze into a CSR graph: count degrees, prefix-sum offsets, fill
      and sort every row, drop duplicate edges.  O(n + m log d).  The
      builder may keep accumulating edges afterwards; a later [finish]
      produces a fresh snapshot.

      [shard] parallelizes the row-sorting pass — the dominant cost on
      dense rows.  It receives the node range [0, n) and a body that
      sorts the disjoint rows [lo, hi); pass
      [fun ~lo ~hi f -> Exec.Pool.run_range pool ~lo ~hi f] to fan the
      rows across a domain pool (this library deliberately has no
      [exec] dependency — the executor is injected).  The resulting CSR
      is bit-identical with or without sharding, at any width. *)
end

module Row : sig
  type t
  (** The cursor {!of_rows} hands to [fill]: one row, written ascending. *)

  val push : t -> int -> unit
  (** Append one neighbor. *)

  val push_range : t -> int -> int -> unit
  (** [push_range r lo hi] appends every node of [[lo, hi)] (nothing when
      [hi <= lo]).  Both pushes raise [Invalid_argument] when an entry is
      out of range, is the row's own node, is not above the previous
      entry, or would overfill the row's declared degree. *)
end

val of_rows :
  ?shard:(lo:int -> hi:int -> (int -> int -> unit) -> unit) ->
  weights:int array ->
  int ->
  degree:(int -> int) ->
  fill:(int -> Row.t -> unit) ->
  t
(** [of_rows ~weights n ~degree ~fill] builds a graph whose rows are
    known in closed form, with no edge list and no sort: [degree v] is
    row [v]'s length (prefix-summed into the offsets), and [fill v r]
    writes row [v] ascending straight into the neighbors array through
    [r].  [weights] (length [n], copied) gives the node weights; labels
    are the node indices.  O(n + m).

    Every guarantee of {!Builder} is checked, and a violation raises
    [Invalid_argument]: weights non-negative; each row filled to exactly
    its degree, strictly ascending, in range and free of self-loops
    (checked by {!Row} as it is written); and the graph symmetric, proved
    by one sequential cursor pass over the rows.

    [shard] parallelizes the fill, as in {!Builder.finish}: it receives
    the node range [0, n) and a body that fills the disjoint rows
    [lo, hi); an exception raised by [fill] propagates out of [shard].
    The result is bit-identical with or without sharding, at any width,
    and {!equal} to a {!Builder} graph with the same edges. *)

val of_graph : Graph.t -> t
(** Exact conversion, weights and labels included.  O(n + m) thanks to
    the word-skipping bitset iteration. *)

val to_graph : t -> Graph.t
(** Exact inverse (allocates the n²-bit adjacency matrix — only sensible
    at small n). *)

(** {1 Accessors — the {!Graph} vocabulary} *)

val n : t -> int
val has_edge : t -> int -> int -> bool
(** Binary search in the row: O(log degree). *)

val degree : t -> int -> int
val max_degree : t -> int
val edge_count : t -> int

val weight : t -> int -> int
val total_weight : t -> int

val set_weight_of : t -> Stdx.Bitset.t -> int
(** [Σ_{v ∈ s} w(v)] over a bitset vertex set, as in
    {!Graph.set_weight_of}. *)

val label : t -> int -> string
(** The builder-assigned label, or the node index when none was set. *)

(** {1 Iteration} *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** Ascending, no allocation. *)

val fold_neighbors : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

val neighbors_array : t -> int -> int array
(** A fresh sorted array of the row — the per-node view handed to
    CONGEST program instances. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each undirected edge once, with [u < v], ascending. *)

val iter_nodes : (int -> unit) -> t -> unit

val reweight : t -> (int -> int) -> t
(** [reweight g f] is a graph with weight [f v] at every node, sharing
    [g]'s structure arrays — O(n), no copy of the edge data. *)

(** {1 Comparison, sizing, formatting} *)

val equal : t -> t -> bool
(** Same size, weights and edge sets (labels ignored), matching
    {!Graph.equal}. *)

val resident_words : t -> int
(** Approximate heap words held by the structure (offsets + neighbors +
    weights + labels) — the "peak words" denominator reported by the
    LARGEN bench. *)

val pp : Format.formatter -> t -> unit
(** One-line summary in the {!Graph.pp} format. *)
