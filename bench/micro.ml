(* Bechamel micro-benchmarks: one Test.make per experiment's hot kernel, so
   the cost of each reproduction stage is tracked alongside its results. *)

open Bechamel
open Toolkit
module Rng = Wx_util.Rng
module Bitset = Wx_util.Bitset
module Gen = Wx_graph.Gen
module Bipartite = Wx_graph.Bipartite
module Sim_csr = Wx_radio.Sim_csr

let make_tests () =
  let r = Rng.create 515151 in
  let g64 = Gen.random_regular r 64 4 in
  let core32 = Wx_constructions.Core_graph.create 32 in
  let core256 = Wx_constructions.Core_graph.create 256 in
  let inst = Wx_constructions.Core_graph.bip core32 in
  let inst_rand = Gen.random_bipartite_sdeg r ~s:32 ~n:96 ~d:4 in
  let half = Bitset.random_of_universe r 32 16 in
  let rng_decay = Rng.create 616161 in
  let rng_spectral = Rng.create 717171 in
  let chain = Wx_constructions.Broadcast_chain.create r ~copies:2 ~s:8 in
  [
    (* e1/e5 kernel: unique-coverage evaluation. *)
    Test.make ~name:"unique_count core32 (half S)"
      (Staged.stage (fun () -> Wx_expansion.Nbhd.Bip.unique_count inst half));
    (* e5 kernels: the two tree DPs. *)
    Test.make ~name:"core DP max-unique s=256"
      (Staged.stage (fun () -> Wx_constructions.Core_graph.dp_max_unique core256));
    Test.make ~name:"core DP min-coverage s=256"
      (Staged.stage (fun () -> Wx_constructions.Core_graph.dp_min_coverage core256));
    (* e7 kernel: one decay draw-and-evaluate. *)
    Test.make ~name:"decay solve (reps=8) rand 32x96"
      (Staged.stage (fun () -> Wx_spokesmen.Decay.solve ~reps:8 rng_decay inst_rand));
    (* e10 kernels: the deterministic procedures. *)
    Test.make ~name:"partition run rand 32x96"
      (Staged.stage (fun () -> Wx_spokesmen.Partition.run inst_rand));
    Test.make ~name:"naive run rand 32x96"
      (Staged.stage (fun () -> Wx_spokesmen.Naive.run inst_rand));
    (* e2 kernel: λ₂ by power iteration. *)
    Test.make ~name:"lambda2 random 4-regular n=64"
      (Staged.stage (fun () -> Wx_spectral.Spectral_gap.lambda2_regular g64 rng_spectral));
    (* e11 kernel: one radio round on the chain. *)
    Test.make ~name:"radio step (flood) on chain"
      (Staged.stage
         (let g = chain.Wx_constructions.Broadcast_chain.graph and r = Rng.create 1 in
          fun () ->
            let st = Sim_csr.create ~jobs:1 g ~source:0 in
            ignore (Sim_csr.step st Sim_csr.flood r)));
    (* exact-enumeration kernel (ablation A3's unit cost). *)
    Test.make ~name:"gray unique enumeration 2^16"
      (Staged.stage
         (let small = Gen.random_bipartite_sdeg (Rng.create 1) ~s:16 ~n:32 ~d:3 in
          fun () -> Wx_expansion.Bip_measure.exact_max_unique small));
    (* branch-and-bound on the same instance (ablation A6's unit cost). *)
    Test.make ~name:"branch-and-bound 16x32"
      (Staged.stage
         (let small = Gen.random_bipartite_sdeg (Rng.create 1) ~s:16 ~n:32 ~d:3 in
          fun () -> Wx_spokesmen.Bb.solve small));
    (* enumeration kernel: from-scratch scoring vs the incremental
       delta-scoring engine, per exact measure (KERN's unit costs). *)
    Test.make ~name:"beta enum naive gnp n=14"
      (Staged.stage
         (let g = Gen.gnp (Rng.create 929292) 14 0.3 in
          fun () -> Wx_bench.Kernel_bench.naive_beta g 7));
    Test.make ~name:"beta enum incremental gnp n=14"
      (Staged.stage
         (let g = Gen.gnp (Rng.create 929292) 14 0.3 in
          fun () -> Wx_expansion.Measure.beta_exact ~jobs:1 g));
    Test.make ~name:"beta_u enum naive gnp n=14"
      (Staged.stage
         (let g = Gen.gnp (Rng.create 929292) 14 0.3 in
          fun () -> Wx_bench.Kernel_bench.naive_beta_u g 7));
    Test.make ~name:"beta_u enum incremental gnp n=14"
      (Staged.stage
         (let g = Gen.gnp (Rng.create 929292) 14 0.3 in
          fun () -> Wx_expansion.Measure.beta_u_exact ~jobs:1 g));
    Test.make ~name:"beta_w enum naive gnp n=10"
      (Staged.stage
         (let g = Gen.gnp (Rng.create 929292) 10 0.35 in
          fun () -> Wx_bench.Kernel_bench.naive_beta_w g 5));
    Test.make ~name:"beta_w enum incremental gnp n=10"
      (Staged.stage
         (let g = Gen.gnp (Rng.create 929292) 10 0.35 in
          fun () -> Wx_expansion.Measure.beta_w_exact ~jobs:1 g));
    (* flow-based exact arboricity (E12's kernel). *)
    Test.make ~name:"exact arboricity grid 8x8"
      (Staged.stage
         (let g = Gen.grid 8 8 in
          fun () -> Wx_graph.Densest.arboricity_exact g));
    (* schedule synthesis on a small grid (E11's schedule table kernel). *)
    Test.make ~name:"schedule synth grid 5x5"
      (Staged.stage
         (let g = Gen.grid 5 5 in
          let r = Rng.create 2 in
          fun () -> Wx_radio.Schedule.synthesize r g ~source:0));
  ]

let run () =
  print_endline "\n=== MICRO: bechamel kernel timings ===\n";
  let tests = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (make_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Wx_util.Table.create [ "kernel"; "ns/run"; "r²" ] in
  let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let est =
        match Analyze.OLS.estimates ols_result with Some [ v ] -> v | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some v -> v | None -> nan
      in
      Wx_util.Table.add_row t
        [ name; Wx_util.Table.ff ~dec:0 est; Wx_util.Table.ff ~dec:3 r2 ])
    (List.sort compare rows);
  Wx_util.Table.print t
