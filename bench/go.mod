module odlib/bench

go 1.24

require odlib v0.0.0

replace odlib => ../
