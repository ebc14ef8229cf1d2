package faers

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzReadTables throws bytes at the four '$'-delimited table readers.
// The contract: no reader panics, and every table a reader accepts
// round-trips through the matching writer: the written table reads
// back without error to the same rows. Seeds are the sample tables,
// their CRLF forms, tables with extra or missing columns, a bad
// drug_seq, a header alone and empty input.
func FuzzReadTables(f *testing.F) {
	for _, s := range []string{demoSample, drugSample, reacSample, outcSample} {
		f.Add([]byte(s))
		f.Add(bytes.ReplaceAll([]byte(s), []byte("\n"), []byte("\r\n")))
	}
	for _, s := range []string{
		"primaryid$pt$extra_col\n1$Rash$junk\n 2 $  Pain  \n\n3\n",
		"DRUG_SEQ$PrimaryID$drugname$role_cod$x\n1$9$ASPIRIN$PS$y\n",
		"primaryid$drug_seq$role_cod$drugname\n1$one$PS$ASPIRIN\n",
		"primaryid$drug_seq$role_cod$drugname\n1$-7 $PS$A$B\n",
		"primaryid$caseid\n1$C1\n",
		"primaryid$outc_cod\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, "DEMO", data, ReadDemo, WriteDemo)
		roundTrip(t, "DRUG", data, ReadDrug, WriteDrug)
		roundTrip(t, "REAC", data, ReadReac, WriteReac)
		roundTrip(t, "OUTC", data, ReadOutc, WriteOutc)
	})
}

// roundTrip reads data as one table kind; when the read succeeds, the
// rows are written and must read back unchanged.
func roundTrip[T any](t *testing.T, kind string, data []byte,
	read func(io.Reader) ([]T, error), write func(io.Writer, []T) error) {
	t.Helper()
	rows, err := read(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := write(&buf, rows); err != nil {
		t.Fatalf("%s: writing %d rows: %v", kind, len(rows), err)
	}
	again, err := read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: reading the written table: %v\n%q", kind, err, buf.Bytes())
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatalf("%s: rows changed in a round trip:\n read    %+v\n re-read %+v", kind, rows, again)
	}
}
