module github.com/tasterdb/taster/benchmark

go 1.24

require github.com/tasterdb/taster v0.0.0

replace github.com/tasterdb/taster => ../
