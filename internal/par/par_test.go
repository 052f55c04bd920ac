package par

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestParallelMapOrdersResults(t *testing.T) {
	n := 200
	got, err := ParallelMap(n, 8, func(i int) (int, error) {
		// Uneven work so completion order scrambles.
		v := 0
		for j := 0; j < (i%7)*1000; j++ {
			v += j
		}
		_ = v
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestParallelMapEmptyAndSerial(t *testing.T) {
	if got, err := ParallelMap(0, 4, func(int) (int, error) { return 0, nil }); err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
	got, err := ParallelMap(3, 1, func(i int) (string, error) { return fmt.Sprint(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
		t.Fatalf("serial map: got %v", got)
	}
}

func TestParallelMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := ParallelMap(50, workers, func(i int) (int, error) {
			if i == 17 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
	}
}
