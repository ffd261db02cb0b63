module mpbasset/bench

go 1.24

require mpbasset v0.0.0

replace mpbasset => ../
