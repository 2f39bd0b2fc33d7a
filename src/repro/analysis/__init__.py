"""Guards on the tree's own code: complexity accounting
(`repro.analysis.complexity`), read by E2 and ``python -m repro sizes``
and by nothing a simulation or a node process runs."""
