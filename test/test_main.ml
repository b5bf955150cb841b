let () =
  Alcotest.run "snapcc"
    (Test_hypergraph.suite @ Test_runtime.suite @ Test_token.suite
    @ Test_cc1.suite @ Test_cc23.suite @ Test_spec.suite @ Test_metrics.suite
    @ Test_workload.suite @ Test_baselines.suite @ Test_mp.suite
    @ Test_net.suite @ Test_packed.suite @ Test_safety.suite @ Test_statics.suite @ Test_mc.suite
    @ Test_symmetry.suite
    @ Test_experiments.suite @ Test_telemetry.suite @ Test_causal.suite
    @ Test_smc.suite @ Test_engine_cache.suite @ Test_kernels.suite
    @ Test_catalog.suite)
