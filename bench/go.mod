module smartsra/bench

go 1.22

require smartsra v0.0.0

replace smartsra => ../
