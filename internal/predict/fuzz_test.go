package predict

import (
	"bytes"
	"testing"
	"time"

	"zoomlens/internal/features"
)

// FuzzModelLoad holds Load to its contract on hostile bytes — a model
// file comes from outside the process: it returns an error, or a model
// whose Predict gives finite probabilities that sum to 1 on a fixed row.
func FuzzModelLoad(f *testing.F) {
	m, err := Train(synthRows(5), TrainOptions{Epochs: 10})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	for _, n := range []int{0, 1, len(saved) / 3, len(saved) / 2, len(saved) - 2} {
		f.Add(saved[:n])
	}
	row := features.Row{
		Window: time.Second, Packets: 30, WireBytes: 30000, PayloadBytes: 27900,
		IATMeanMS: 33, IATStdMS: 3, IATMaxMS: 40, Bursts: 30, MaxBurstPkts: 1,
		SizeMeanB: 1000, SizeStdB: 10, SizeEntropy: 0.5,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, probs := m.Predict(&row)
		checkProbs(t, probs)
	})
}
