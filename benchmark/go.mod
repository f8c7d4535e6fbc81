module implicate/benchmark

go 1.23

require implicate v0.0.0

replace implicate => ../
