# Tier-1 verification is `make ci`: the same gate the GitHub workflow
# runs (.github/workflows/ci.yml).

GO ?= go

# LINT_STRICT=1 (CI) turns a missing optional lint tool (staticcheck,
# govulncheck) into a failure instead of a skip-with-notice.
LINT_STRICT ?=

# pynamic-lint is built once into bin/ and rebuilt only when its
# sources change, so repeated `make lint` runs don't re-link the tool.
PYNAMIC_LINT := bin/pynamic-lint
PYNAMIC_LINT_SRC := $(shell find cmd/pynamic-lint internal/analysis -name '*.go' -not -path '*/testdata/*')

.PHONY: build test bench lint ci clean

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

$(PYNAMIC_LINT): $(PYNAMIC_LINT_SRC)
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/pynamic-lint

# The one lint gate: gofmt, go vet, the repo's own analyzers
# (determinism, noalloc, lockcheck, ctxflow, wraperr — see
# DESIGN.md "Statically enforced invariants"), then staticcheck
# (suite selection and justified exclusions live in staticcheck.conf)
# and govulncheck when installed. CI runs exactly this target.
lint: $(PYNAMIC_LINT)
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	$(PYNAMIC_LINT) ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "LINT_STRICT: staticcheck not installed" >&2; exit 1; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "LINT_STRICT: govulncheck not installed" >&2; exit 1; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

ci: lint build test bench

clean:
	$(GO) clean
	rm -rf runs .pynamic-cache bin
