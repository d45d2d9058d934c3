# Convenience targets for the Falcon-Down reproduction.

PYTHON ?= python3

.PHONY: install test lint sast sast-oracle sast-contract sast-variants typecheck bench bench-smoke demo figures smoke verify clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

# Ruff is not vendored; the gate is enforced in CI and runs locally
# whenever the tool happens to be installed.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Zero-dependency static analysis (repro.sast): secret-flow taint with
# interval precision, determinism lint, concurrency/durability lint —
# enforced against the leakage contract's recorded oracle verdicts
# (CT001/CT002/CT003). Works without numpy; uses the warm summary cache.
sast:
	$(PYTHON) -m repro.sast verify src/repro --contract leakage-contract.json \
		--cache .sast-cache.json

# Same gate plus the dynamic taint oracle: fresh differential-replay
# verdicts (CT003/CT004) and declassify liveness inside the coverage
# boundary (CT005). Needs numpy for the workload.
sast-oracle:
	$(PYTHON) -m repro.sast verify src/repro --contract leakage-contract.json --oracle

# Regenerate the contract after an intentional change (runs the oracle,
# carries over reviewed leak classes and reasons by fingerprint).
sast-contract:
	$(PYTHON) -m repro.sast verify src/repro --contract leakage-contract.json \
		--write-contract

# Dynamic CT007 gate: replay each countermeasure variant's workload with
# every module line watched and check the digests against the variant's
# recorded claim (masking: key-independent except the clear boundary;
# constant-time: values stay key-dependent). Needs numpy for keygen.
sast-variants:
	$(PYTHON) -m repro.sast verify src/repro --contract leakage-contract.json \
		--variant masked-mul --oracle
	$(PYTHON) -m repro.sast verify src/repro --contract leakage-contract.json \
		--variant ct-mul --oracle

# Mypy is not vendored; like lint, the gate is enforced in CI and runs
# locally whenever the tool happens to be installed.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy --strict src/repro/utils src/repro/obs src/repro/sast src/repro/leakage src/repro/countermeasures src/repro/sasca; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it)"; \
	fi

# Full suite at the paper's trace budget. The headline benches emit
# BENCH_*.json perf artifacts (schema in benchmarks/_emit.py); the gate
# compares them against bench-baseline/ and fails on >25% regressions
# (no baseline directory = recording-only run, always passes).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s
	$(PYTHON) -m pytest benchmarks/bench_e2e_key_recovery.py -q -s \
		-k "capture_backend_throughput or streaming_cpa_matches_one_shot"
	$(PYTHON) scripts/check_bench_regression.py --baseline bench-baseline --current .

# CI-sized perf trajectory: the same emitting benches at reduced trace
# counts, then the regression gate. The capture-backend microbench runs
# in the same process as the throughput bench so its measured rates land
# in BENCH_throughput.json's capture_backends block.
bench-smoke:
	FALCON_BENCH_TRACES=6000 FALCON_BENCH_THROUGHPUT_TRACES=800 \
	$(PYTHON) -m pytest benchmarks/bench_e2e_key_recovery.py -q -s \
		-k "e2e_key_recovery_and_forgery or capture_backend_throughput or streaming_cpa_matches_one_shot"
	$(PYTHON) -m pytest benchmarks/bench_sast.py --benchmark-only -q -s
	$(PYTHON) scripts/check_bench_regression.py --baseline bench-baseline --current .

# End-to-end smoke of the moving parts the unit tests mock: the
# 2-worker fan-out, a materialized campaign store, and a checkpointed
# session resume (scripts/e2e_smoke.py). Catches pickling, per-target
# seeding, shard layout, and fingerprint regressions in one run.
# SMOKE_BACKEND selects the capture step-value engine and SMOKE_TARGET
# the leakage surface; CI fans the smoke over both matrices.
SMOKE_BACKEND ?= numpy-batch
SMOKE_TARGET ?= fpr-mul
smoke:
	$(PYTHON) scripts/e2e_smoke.py --backend $(SMOKE_BACKEND) --target $(SMOKE_TARGET)

verify: test lint sast typecheck smoke

demo:
	$(PYTHON) examples/attack_demo.py --n 8 --traces 10000

figures:
	$(PYTHON) examples/trace_explorer.py
	$(PYTHON) examples/ntt_vs_fft.py
	$(PYTHON) examples/single_trace_ntt.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	rm -f BENCH_*.json .sast-cache.json
