(* Shared infrastructure for the experiment harness. *)

module Rng = Wx_util.Rng
module Bitset = Wx_util.Bitset
module Table = Wx_util.Table
module Stats = Wx_util.Stats
module Floatx = Wx_util.Floatx
module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite
module Gen = Wx_graph.Gen
module Traversal = Wx_graph.Traversal
module Arboricity = Wx_graph.Arboricity
module Measure = Wx_expansion.Measure
module Bip_measure = Wx_expansion.Bip_measure
module Bounds = Wx_expansion.Bounds
module Nbhd = Wx_expansion.Nbhd
module Solver = Wx_spokesmen.Solver
module Sim = Wx_radio.Sim
module Sim_csr = Wx_radio.Sim_csr
module Instances = Wireless_expanders.Instances
module Theorems = Wireless_expanders.Theorems
module Json = Wx_obs.Json
module Metrics = Wx_obs.Metrics

type experiment = {
  id : string;  (** "e1" ... "e12", "ablation" *)
  title : string;
  claim : string;  (** which part of the paper it reproduces *)
  run : quick:bool -> unit;
}

let section e =
  Printf.printf "\n=== %s: %s ===\n    [%s]\n\n" (String.uppercase_ascii e.id) e.title e.claim

let seed = Instances.seed
let rng off = Rng.create (seed + off)

(* ---- structured results ----

   Experiments print tables for humans; in parallel, every predicted vs
   measured comparison is recorded here so the runner can put the check
   rows in the wx-bench/4 report. The collector is per-experiment:
   the harness drains it with [take_recorded] after each [run]. *)

type check_row = {
  claim : string;
  instance : string;
  predicted : float;
  measured : float;
  holds : bool;
}

let recorded : check_row list ref = ref []

let record ~claim ?(instance = "") ?(predicted = Float.nan) ?(measured = Float.nan) holds =
  recorded := { claim; instance; predicted; measured; holds } :: !recorded

let record_check (c : Theorems.check) =
  record ~claim:c.Theorems.claim ~instance:c.Theorems.instance ~predicted:c.Theorems.predicted
    ~measured:c.Theorems.measured c.Theorems.holds

let take_recorded () =
  let rows = List.rev !recorded in
  recorded := [];
  rows

let row_json r =
  Json.Obj
    [
      ("claim", Json.String r.claim);
      ("instance", Json.String r.instance);
      ("predicted", Json.Float r.predicted);
      ("measured", Json.Float r.measured);
      ("holds", Json.Bool r.holds);
    ]

let checks_table (checks : Theorems.check list) =
  let t = Table.create [ "claim"; "instance"; "predicted"; "measured"; "holds" ] in
  List.iter
    (fun (c : Theorems.check) ->
      record_check c;
      Table.add_row t
        [
          c.Theorems.claim;
          c.Theorems.instance;
          Table.ff ~dec:4 c.Theorems.predicted;
          Table.ff ~dec:4 c.Theorems.measured;
          Table.fb c.Theorems.holds;
        ])
    checks;
  Table.print t

let verdict ok_count total =
  Printf.printf "\n  verdict: %d/%d claims hold\n" ok_count total

let count_holds checks = List.length (List.filter (fun c -> c.Theorems.holds) checks)
