// The benchmark is a module of its own: the contract it is written to asks
// for a package with its own build file inside the benchmark's directory.
// The module path keeps the `tiamat/` prefix: that is what lets it import
// tiamat/internal/... and measure each layer through its own functions.
// The repository's `go build ./... && go test ./...` does not reach it;
// `go vet ./... && go test ./...` here does.
module tiamat/bench

go 1.22

require tiamat v0.0.0

replace tiamat => ../
