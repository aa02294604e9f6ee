PYTHON ?= python3
OUT ?= out
GOOD = scenarios/good_network.yaml
WEAK = scenarios/weak_network.yaml
# runs from the source tree, installed or not
RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON)
GRIDDETECT = $(RUN) -m griddetect.cli

.PHONY: install test check acceptance reproduce pairs record clean

install:
	pip install -e . --no-build-isolation

test:
	$(RUN) -m pytest -q

# Tier-1 tests; `dist` as a real process writing to stdout, in text and CSV,
# against its goldens; `mp` the same way on both shipped scenarios against
# out/; the byte-identity check of the simulation tables in
# out/, then one short sim-interior run: every simulator block against a
# trial-by-trial replay; one short table-sweep run: every table command against
# its oracle, and the shipped errors/bayes/mp tables against out/; then one
# short exact-wide run: every 3- to 6-class design against the enumeration
# oracle, the closed-form Bayes row and the Neyman-Pearson check.
check: test
	$(GRIDDETECT) dist --scenario $(WEAK) --under normal --weight-mode exact | cmp - tests/golden/dist_weak_normal_exact.txt
	$(GRIDDETECT) dist --scenario $(WEAK) --under normal --weight-mode exact --format csv | cmp - tests/golden/dist_weak_normal_exact.csv
	$(GRIDDETECT) mp --scenario $(GOOD) | cmp - out/mp_good.txt
	$(GRIDDETECT) mp --scenario $(WEAK) | cmp - out/mp_weak.txt
	$(GRIDDETECT) mp --scenario $(GOOD) --format csv | cmp - out/mp_good.csv
	$(GRIDDETECT) mp --scenario $(WEAK) --format csv | cmp - out/mp_weak.csv
	$(RUN) bench/run.py --golden-sim
	$(RUN) bench/run.py --workload sim-interior --seed 1 --seconds 1 --trace 0
	$(RUN) bench/run.py --workload table-sweep --seed 1 --seconds 1 --trace 0
	$(RUN) bench/run.py --workload exact-wide --seed 1 --seconds 1 --trace 0

acceptance:
	$(RUN) -m pytest tests/test_acceptance.py -v -s

# Paired benchmark runs of BASE (default HEAD) against the working tree:
# make pairs WORKLOAD=exact-wide [PAIRS=10 SEED=1 BASE=HEAD]
# WORKLOAD=all runs the pairs for each workload in BENCHMARK.json in turn, on one export of BASE.
PAIRS ?= 10
SEED ?= 1
BASE ?= HEAD
pairs:
	$(PYTHON) tools/pairs.py --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED) --base $(BASE)

# BENCH_<PR>.json: the tier-1 and `make reproduce` wall times and each workload's
# end-to-end metrics (seed 1) for the working tree: make record PR=<n>
record:
	$(PYTHON) tools/record.py --pr $(PR)

# Regenerate every benchmark table analytically and by simulation.
reproduce:
	mkdir -p $(OUT)
	$(GRIDDETECT) errors   --scenario $(GOOD) --out $(OUT)/errors_good.txt
	$(GRIDDETECT) errors   --scenario $(WEAK) --out $(OUT)/errors_weak.txt
	$(GRIDDETECT) bayes    --scenario $(GOOD) --out $(OUT)/bayes_good.txt
	$(GRIDDETECT) bayes    --scenario $(WEAK) --out $(OUT)/bayes_weak.txt
	$(GRIDDETECT) mp       --scenario $(GOOD) --out $(OUT)/mp_good.txt
	$(GRIDDETECT) mp       --scenario $(WEAK) --out $(OUT)/mp_weak.txt
	$(GRIDDETECT) errors   --scenario $(GOOD) --format csv --out $(OUT)/errors_good.csv
	$(GRIDDETECT) errors   --scenario $(WEAK) --format csv --out $(OUT)/errors_weak.csv
	$(GRIDDETECT) bayes    --scenario $(GOOD) --format csv --out $(OUT)/bayes_good.csv
	$(GRIDDETECT) bayes    --scenario $(WEAK) --format csv --out $(OUT)/bayes_weak.csv
	$(GRIDDETECT) mp       --scenario $(GOOD) --format csv --out $(OUT)/mp_good.csv
	$(GRIDDETECT) mp       --scenario $(WEAK) --format csv --out $(OUT)/mp_weak.csv
	$(GRIDDETECT) simulate --scenario $(GOOD) --format csv --out $(OUT)/simulation_good.csv
	$(GRIDDETECT) simulate --scenario $(WEAK) --format csv --out $(OUT)/simulation_weak.csv
	@echo "tables written to $(OUT)/"

clean:
	rm -rf $(OUT)
