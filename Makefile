# Convenience targets for the Falcon-Down reproduction.

PYTHON ?= python3

# Run against the checkout's src/ without an installed package.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test lint sast sast-oracle sast-contract sast-variants typecheck demo figures smoke verify clean

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

# End-to-end smoke of the moving parts the unit tests mock: the
# 2-worker fan-out, a materialized campaign store, and a checkpointed
# session resume (scripts/e2e_smoke.py). Catches pickling, per-target
# seeding, shard layout, and fingerprint regressions in one run.
# SMOKE_TARGET selects the leakage surface; CI fans the smoke over
# every registered surface.
SMOKE_TARGET ?= fpr-mul
smoke:
	$(PYTHON) scripts/e2e_smoke.py --target $(SMOKE_TARGET)

# The tier-1 suite, the gates, the smoke, and the benchmark harness's
# self-tests (perfbench/: every layer binding resolves). The benchmark
# itself is `python3 perfbench/run.py`; see BENCHMARK.json.
verify: test lint sast sast-oracle typecheck smoke
	$(PYTHON) -m pytest perfbench -q

demo:
	$(PYTHON) examples/attack_demo.py --n 8 --traces 10000

figures:
	$(PYTHON) examples/trace_explorer.py
	$(PYTHON) examples/ntt_vs_fft.py
	$(PYTHON) examples/single_trace_ntt.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	rm -f .sast-cache.json
