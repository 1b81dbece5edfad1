module github.com/ariakv/aria/benchmarks

go 1.22

require github.com/ariakv/aria v0.0.0

replace github.com/ariakv/aria => ../
