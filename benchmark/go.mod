// The benchmark is a module of its own because the acceptance contract
// for BENCHMARK.json wants a compiled benchmark to carry its own build
// file inside its directory. The root module's `go build ./...` and
// `go test ./...` therefore do not see it: run `go test -C benchmark ./...`.
// The import path keeps the bohrium/ prefix, which is what lets it import
// bohrium/internal/... read-only for the layer replay.
module bohrium/benchmark

go 1.24

require bohrium v0.0.0

replace bohrium => ../
