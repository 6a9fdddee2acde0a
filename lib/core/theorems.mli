(** One checkable function per quantitative claim of the paper.

    Each check returns a {!check} record pairing the paper's predicted
    bound with the measured value on a concrete instance, plus whether the
    claimed inequality holds. These power both the test suite (every check
    must hold) and the bench harness (the records become table rows).

    Exact measures are used whenever the instance is small enough; checks
    on larger instances state which side of the inequality a sampled
    certificate can support (sampling a min yields a sound upper bound,
    so it can only refute, never spuriously confirm, a lower-bound claim —
    refutations are what we test for). *)

module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite

type check = {
  claim : string;  (** e.g. "Lemma 3.2" *)
  instance : string;  (** human-readable instance description *)
  predicted : float;  (** the bound the paper asserts *)
  measured : float;  (** what we measured *)
  holds : bool;
}

val pp_check : Format.formatter -> check -> unit

(** {1 Section 2/3: relations between the expansion notions} *)

val obs_2_1 : ?alpha:float -> string -> Graph.t -> check list
(** [β ≥ βw ≥ βu], all three exact. Small graphs only. *)

val lemma_3_1 : ?alpha:float -> string -> Graph.t -> Wx_util.Rng.t -> check
(** Spectral bound for regular graphs: measured exact β vs
    [(1 − 1/d)·βu + (d − λ₂)(1 − αu)/d]. *)

val lemma_3_2 : ?alpha:float -> string -> Graph.t -> check
(** [βu ≥ 2β − ∆], both sides exact. *)

val lemma_4_1 : ?alpha:float -> string -> Graph.t -> check
(** [βw ≥ 2β − ∆], both sides exact (the wireless transplant of 3.2). *)

val lemma_3_3 : Wx_constructions.Gbad.t -> check list
(** On Gbad: (a) the unique expansion of the full set S is exactly
    [2β − ∆]; (b) the instance's one-sided ordinary expansion is ≥ β
    (checked on sampled subsets for large s, exact for small). *)

val gbad_wireless : Wx_constructions.Gbad.t -> check
(** Remark after 3.3: wireless expansion of S in Gbad ≥ max{2β−∆, ∆/2}
    (measured: exact for small s, the every-second witness for large). *)

(** {1 Section 4: wireless expansion bounds} *)

val theorem_1_1_bip : string -> Bipartite.t -> Wx_util.Rng.t -> check
(** On a bipartite instance: best solver coverage per |S| vs
    [c·β/log₂(2·min{∆/β, ∆·β})] with the honest constant c = 1/9 (the
    paper's explicit constant from Corollary A.14, which subsumes the
    probabilistic-method constants). *)

val lemma_4_4 : Wx_constructions.Core_graph.t -> check list
(** All five properties of the core graph, exactly (tree DPs). *)

val lemma_4_6 : Wx_constructions.Gen_core.t -> check list
(** Sizes, expansion and the [4/log min{∆*/β*, ∆*·β*}] wireless cap of the
    generalized core graph. *)

val claim_4_9 : Wx_constructions.Worst_case.t -> Wx_util.Rng.t -> samples:int -> check
(** Sampled-witness non-refutation of [β̃ ≥ (1 − ε)β]: the minimum sampled
    expansion of G̃ must not fall below the predicted β̃ (the exact check is
    exponential; any witness below predicted refutes the claim). *)

val claim_4_10 : Wx_constructions.Worst_case.t -> check
(** Wireless expansion witnessed at S*: exact (tree DP) value vs the claim's
    ceiling [24·β̃/(ε³·log min{∆̃/β̃, ∆̃β̃})], normalized per |S*|. *)

(** {1 Section 5: broadcast} *)

val corollary_5_1 : Wx_constructions.Core_graph.t -> check list
(** On the rooted core graph: reaching a [2i/log 2s] fraction of N takes
    ≥ 1 + i rounds for every i — checked against the {e strongest possible}
    adversary, the exact per-round maximum unique coverage [≤ 2s]. *)

val section_5_lower_bound :
  Wx_constructions.Broadcast_chain.t -> Wx_radio.Sim_csr.protocol -> seeds:int list -> check
(** Monte-Carlo: measured mean broadcast time of the protocol on the chain
    vs the instance's [copies·log₂(2s)/4] lower bound. *)

val run_all : ?quick:bool -> Wx_util.Rng.t -> check list
(** Every checker in this module over the curated {!Instances} catalog —
    the complete empirical verification of the paper in one call. [quick]
    shrinks the instance sets. Used by the test suite and by
    [wx verify-paper]. *)
