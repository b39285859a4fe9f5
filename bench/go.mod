module activerules/bench

go 1.22

require activerules v0.0.0

replace activerules => ../
