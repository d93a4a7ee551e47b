# Tier-1 gate: everything `make check` runs must stay green.

GO ?= go

.PHONY: all build fmt vet test race check clean

all: check

build:
	$(GO) build ./...

# Fails if any file needs gofmt (mirrors scripts/check.sh).
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-merge gate, defined once in scripts/check.sh.
check:
	./scripts/check.sh

clean:
	$(GO) clean ./...
	rm -f fpbsim fpbexp *.trace *.prof probes.csv
