PYTHON ?= python3
OUT ?= out
GOOD = scenarios/good_network.yaml
WEAK = scenarios/weak_network.yaml
CAP = tests/scenarios/cap_cell_4x31.yaml
# runs from the source tree, installed or not
RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON)
GRIDDETECT = $(RUN) -m griddetect.cli

.PHONY: install test check acceptance reproduce pairs record clean

# --no-build-isolation skips pyproject's setuptools>=68, so the installed setuptools must build the
# editable wheel itself: 70.1 and later ship bdist_wheel, earlier ones need the wheel package
install:
	@$(PYTHON) -c "import importlib.util, setuptools, sys; v = tuple(int(p) for p in setuptools.__version__.split('.')[:2]); sys.exit(v < (70, 1) and importlib.util.find_spec('wheel') is None)" \
	  || { echo "make install: needs setuptools >= 70.1 or the wheel package to build an editable install; every other make target runs from src/ without an install" >&2; exit 1; }
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(RUN) -m pytest -q

# Tier-1 tests; `dist` as a real process writing to stdout, in text and CSV,
# against its goldens; `estimate` the same way on the committed fixed-seed
# log; every command `make reproduce` runs (`errors`, `bayes`
# and `mp` in text, `mp` and `simulate` in CSV) the same way on both shipped
# scenarios against out/; the byte-identity check of the simulation tables in
# out/; `dist` on the 4x31 cap cell (2**20 count tuples), in text and CSV under
# both laws, each output's sha256 against the value it has had since it was
# first recorded (about 3.5 s a run, too slow for the tests); then one short
# sim-interior run: every simulator block against a
# trial-by-trial replay; one short table-sweep run: every table command against
# its oracle, and the shipped errors/bayes/mp tables against out/; then one
# short exact-wide run: every 3- to 6-class design against the enumeration
# oracle, the closed-form Bayes row and the Neyman-Pearson check.
check: test
	$(GRIDDETECT) dist --scenario $(WEAK) --under normal --weight-mode exact | cmp - tests/golden/dist_weak_normal_exact.txt
	$(GRIDDETECT) dist --scenario $(WEAK) --under normal --weight-mode exact --format csv | cmp - tests/golden/dist_weak_normal_exact.csv
	$(GRIDDETECT) estimate tests/golden/estimate_log.csv | cmp - tests/golden/estimate.txt
	$(GRIDDETECT) estimate tests/golden/estimate_log.csv --format csv | cmp - tests/golden/estimate.csv
	$(GRIDDETECT) errors --scenario $(GOOD) | cmp - out/errors_good.txt
	$(GRIDDETECT) errors --scenario $(WEAK) | cmp - out/errors_weak.txt
	$(GRIDDETECT) bayes --scenario $(GOOD) | cmp - out/bayes_good.txt
	$(GRIDDETECT) bayes --scenario $(WEAK) | cmp - out/bayes_weak.txt
	$(GRIDDETECT) mp --scenario $(GOOD) | cmp - out/mp_good.txt
	$(GRIDDETECT) mp --scenario $(WEAK) | cmp - out/mp_weak.txt
	$(GRIDDETECT) mp --scenario $(GOOD) --format csv | cmp - out/mp_good.csv
	$(GRIDDETECT) mp --scenario $(WEAK) --format csv | cmp - out/mp_weak.csv
	$(GRIDDETECT) simulate --scenario $(GOOD) --format csv | cmp - out/simulation_good.csv
	$(GRIDDETECT) simulate --scenario $(WEAK) --format csv | cmp - out/simulation_weak.csv
	$(GRIDDETECT) dist --scenario $(CAP) --under event | sha256sum | grep -qx '6d9e6bea08226a0c6946e990d36a5c9ecf210423f94f87e4c1c239e243f33e0c  -'
	$(GRIDDETECT) dist --scenario $(CAP) --under event --format csv | sha256sum | grep -qx 'b127f9037a4356df2b04db7a3f098afe297789507248cf119848ec0112a3f0f9  -'
	$(GRIDDETECT) dist --scenario $(CAP) --under normal | sha256sum | grep -qx 'c94358130a865e56ef7aeb6beb6cb8589f06ad0a65878cdecc40a0c3231d9fd8  -'
	$(GRIDDETECT) dist --scenario $(CAP) --under normal --format csv | sha256sum | grep -qx '5ebe26b0ba8f33d5b0dd269372220d96e3816b8baa11131dc3310a810c51da4f  -'
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

# BENCH_<PR>.json: the tier-1 and `make reproduce` wall times, `simulate`, `mp` and `bayes` times and
# peak RSS on both shipped scenarios, the cap cell's and a 6x6 cell's command times and peak RSS, and each
# workload's end-to-end metrics (seed 1) for the working tree: make record PR=<n>
record:
	$(PYTHON) tools/record.py --pr $(PR)

# Regenerate every benchmark table analytically and by simulation, all 14 in one interpreter.
reproduce:
	mkdir -p $(OUT)
	$(RUN) tools/reproduce.py $(OUT)
	@echo "tables written to $(OUT)/"

clean:
	rm -rf $(OUT)
