module zoomlens/bench

go 1.22

require zoomlens v0.0.0

replace zoomlens => ../
