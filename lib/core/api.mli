(** Convenience aliases: one namespace for the whole library.

    Downstream code can [open Wireless_expanders.Api] and reach every
    subsystem without depending on the individual [wx_*] libraries:

    {[
      open Wireless_expanders.Api
      let g = Constructions.Core_graph.create 64
    ]} *)

module Util : sig
  module Rng = Wx_util.Rng
  module Bitset = Wx_util.Bitset
  module Stats = Wx_util.Stats
  module Table = Wx_util.Table
  module Floatx = Wx_util.Floatx
  module Combi = Wx_util.Combi
  module Pq = Wx_util.Pq
  module Intvec = Wx_util.Intvec
end

module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite
module Traversal = Wx_graph.Traversal
module Arboricity = Wx_graph.Arboricity
module Flow = Wx_graph.Flow
module Densest = Wx_graph.Densest
module Graph_io = Wx_graph.Graph_io
module Connectivity = Wx_graph.Connectivity
module Gen = Wx_graph.Gen

module Spectral : sig
  module Vec = Wx_spectral.Vec
  module Spectral_gap = Wx_spectral.Spectral_gap
  module Cheeger = Wx_spectral.Cheeger
end

module Expansion : sig
  module Nbhd = Wx_expansion.Nbhd
  module Measure = Wx_expansion.Measure
  module Bip_measure = Wx_expansion.Bip_measure
  module Bounds = Wx_expansion.Bounds
  module Certificate = Wx_expansion.Certificate
end

module Spokesmen : sig
  module Solver = Wx_spokesmen.Solver
  module Decay = Wx_spokesmen.Decay
  module Naive = Wx_spokesmen.Naive
  module Partition = Wx_spokesmen.Partition
  module Buckets = Wx_spokesmen.Buckets
  module Exact = Wx_spokesmen.Exact
  module Bb = Wx_spokesmen.Bb
  module Greedy = Wx_spokesmen.Greedy
  module Anneal = Wx_spokesmen.Anneal
  module Portfolio = Wx_spokesmen.Portfolio
end

module Constructions : sig
  module Cplus = Wx_constructions.Cplus
  module Gbad = Wx_constructions.Gbad
  module Core_graph = Wx_constructions.Core_graph
  module Gen_core = Wx_constructions.Gen_core
  module Worst_case = Wx_constructions.Worst_case
  module Gbad_plug = Wx_constructions.Gbad_plug
  module Broadcast_chain = Wx_constructions.Broadcast_chain
  module Families = Wx_constructions.Families
end

module Radio : sig
  module Spokesmen_cast = Wx_radio.Spokesmen_cast
  module Schedule = Wx_radio.Schedule
  module Trace = Wx_radio.Trace
  module Sim = Wx_radio.Sim
  module Sim_csr = Wx_radio.Sim_csr
end

module Obs : sig
  module Json = Wx_obs.Json
  module Clock = Wx_obs.Clock
  module Metrics = Wx_obs.Metrics
  module Memgc = Wx_obs.Memgc
  module Work = Wx_obs.Work
  module Span = Wx_obs.Span
  module Sink = Wx_obs.Sink
  module Report = Wx_obs.Report
  module Ledger = Wx_obs.Ledger
  module Prof = Wx_obs.Prof
  module Trace_export = Wx_obs.Trace_export
  module Expose = Wx_obs.Expose
end

module Par : sig
  module Pool = Wx_par.Pool
end
