"""Library of the benchmark suite: generator, oracle, statistics, tracer
and the workload runners.  Imported by ``run.py`` / ``runner.py`` /
``gateway_host.py`` next to it; imports ``repro`` only inside the runner
functions."""
