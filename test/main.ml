let () =
  Alcotest.run "instr_sampling"
    (Test_pipeline.suite @ Test_ir.suite @ Test_bytecode.suite
   @ Test_jasm.suite @ Test_opt.suite @ Test_vm.suite @ Test_transform.suite
   @ Test_sampler.suite @ Test_profiles.suite @ Test_props.suite
   @ Test_workloads.suite @ Test_paths.suite @ Test_validate.suite
   @ Test_harness.suite @ Test_differential.suite @ Test_engine.suite
   @ Test_slots.suite @ Test_shrink.suite @ Test_cache_model.suite
   @ Test_pool.suite @ Test_fault.suite @ Test_robust.suite
   @ Test_runcache.suite @ Test_adaptive.suite @ Test_inline.suite
   @ Test_budget.suite @ Test_serve.suite @ Test_merge.suite
   @ Test_cli.suite)
