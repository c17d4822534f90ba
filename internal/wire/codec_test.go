package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// checkDecoders is the read half of the codec's contract: on p, each decoder
// accepts exactly when encoding/json does, and then to the same value.
func checkDecoders(t testing.TB, p []byte) {
	t.Helper()
	var wantReq, gotReq Request
	errJ, errC := json.Unmarshal(p, &wantReq), decodeRequest(p, &gotReq)
	if (errJ == nil) != (errC == nil) {
		t.Fatalf("request %q: encoding/json err=%v, codec err=%v", p, errJ, errC)
	}
	if errJ == nil && gotReq != wantReq {
		t.Fatalf("request %q: codec read %+v, encoding/json %+v", p, gotReq, wantReq)
	}
	var wantResp, gotResp Response
	errJ, errC = json.Unmarshal(p, &wantResp), decodeResponse(p, &gotResp)
	if (errJ == nil) != (errC == nil) {
		t.Fatalf("response %q: encoding/json err=%v, codec err=%v", p, errJ, errC)
	}
	if errJ == nil && !reflect.DeepEqual(gotResp, wantResp) {
		t.Fatalf("response %q: codec read %s, encoding/json %s", p, dump(&gotResp), dump(&wantResp))
	}
}

// checkWriters is the write half: what the codec writes for a value,
// encoding/json reads to what it reads from its own encoding of that value;
// and the codec reads encoding/json's encoding to the same.
func checkWriters(t testing.TB, req *Request, resp *Response) {
	t.Helper()
	var viaJSON, viaCodec, decoded Request
	mustUnmarshal(t, mustMarshal(t, req), &viaJSON)
	mustUnmarshal(t, appendRequest(nil, req), &viaCodec)
	if err := decodeRequest(mustMarshal(t, req), &decoded); err != nil {
		t.Fatalf("decodeRequest(json.Marshal(%+v)): %v", req, err)
	}
	if viaCodec != viaJSON || decoded != viaJSON {
		t.Fatalf("request %+v: via codec %+v, decoded %+v, via encoding/json %+v", req, viaCodec, decoded, viaJSON)
	}

	var rJSON, rCodec, rDecoded Response
	mustUnmarshal(t, mustMarshal(t, resp), &rJSON)
	frame, err := appendResponse(nil, resp)
	if err != nil {
		t.Fatalf("appendResponse: %v", err)
	}
	mustUnmarshal(t, frame, &rCodec)
	if err := decodeResponse(mustMarshal(t, resp), &rDecoded); err != nil {
		t.Fatalf("decodeResponse(json.Marshal(...)): %v", err)
	}
	if !reflect.DeepEqual(rCodec, rJSON) || !reflect.DeepEqual(rDecoded, rJSON) {
		t.Fatalf("response: via codec %s, decoded %s, via encoding/json %s", dump(&rCodec), dump(&rDecoded), dump(&rJSON))
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	p, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return p
}

func mustUnmarshal(t testing.TB, p []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(p, v); err != nil {
		t.Fatalf("json.Unmarshal(%q): %v", p, err)
	}
}

func dump(r *Response) string { return fmt.Sprintf("%#v err=%#v stats=%#v", *r, r.Err, r.Stats) }

// awkward strings: escapes, line and paragraph separators, HTML characters,
// invalid UTF-8, a lone surrogate's UTF-8 spelling, astral runes.
var awkward = []string{
	"", "plain", `quote " and \ backslash`, "tab\tnewline\ncr\r", "\x00\x01\x1f\x7f",
	"\b\f", "line\u2028para\u2029", "<a href='x'>&amp;</a>", "bad \xff\xfe utf8",
	"\xed\xa0\x80 surrogate bytes", "astral 😀 𝄞", "é ü 中文", "\uFFFD", "trailing \xc3",
}

// randomValue draws a row value: the scalars a server writes, sometimes the
// arrays and objects a decoded response may hold.
func randomValue(rng *rand.Rand, depth int) any {
	switch k := rng.Intn(10); {
	case k == 0:
		return nil
	case k == 1:
		return rng.Intn(2) == 0
	case k == 2:
		return []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1}[rng.Intn(7)]
	case k == 3:
		return rng.Int63() - rng.Int63()
	case k == 4:
		return []float64{0, math.Copysign(0, -1), 0.1, -2.5, 1e21, 1e20, 1e-6, 1e-7, 5e-324,
			math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789.125}[rng.Intn(12)]
	case k == 5:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	case k == 6 && depth < 3:
		a := make([]any, rng.Intn(4))
		for i := range a {
			a[i] = randomValue(rng, depth+1)
		}
		return a
	case k == 7 && depth < 3:
		m := map[string]any{}
		for i := rng.Intn(3); i > 0; i-- {
			m[randomString(rng)] = randomValue(rng, depth+1)
		}
		return m
	default:
		return randomString(rng)
	}
}

func randomString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return awkward[rng.Intn(len(awkward))]
	}
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			b.WriteByte(byte(rng.Intn(0x20)))
		case 1:
			b.WriteByte(byte(0x80 + rng.Intn(0x80)))
		case 2:
			b.WriteRune(rune(rng.Intn(0x11000)))
		default:
			b.WriteByte(byte(0x20 + rng.Intn(0x60)))
		}
	}
	return b.String()
}

func randomFrames(rng *rand.Rand) (*Request, *Response) {
	req := &Request{ID: rng.Uint64() >> uint(rng.Intn(64)), Op: []string{OpExec, OpPing, OpStats, randomString(rng)}[rng.Intn(4)]}
	if rng.Intn(2) == 0 {
		req.SQL = randomString(rng)
	}
	if rng.Intn(3) == 0 {
		req.TimeoutMS = rng.Int63() - rng.Int63()
	}
	resp := &Response{ID: uint64(rng.Intn(1000)), OK: rng.Intn(2) == 0}
	if rng.Intn(3) == 0 {
		resp.Err = &Error{Code: Code(randomString(rng)), Retryable: rng.Intn(2) == 0, Message: randomString(rng)}
	}
	if rng.Intn(2) == 0 {
		resp.Columns = make([]string, rng.Intn(4))
		for i := range resp.Columns {
			resp.Columns[i] = randomString(rng)
		}
	}
	if rng.Intn(2) == 0 {
		resp.Rows = make([][]any, rng.Intn(5))
		for i := range resp.Rows {
			if rng.Intn(8) == 0 {
				continue // a nil row
			}
			resp.Rows[i] = make([]any, rng.Intn(5))
			for j := range resp.Rows[i] {
				resp.Rows[i][j] = randomValue(rng, 0)
			}
		}
	}
	resp.RowsAffected = int64(rng.Intn(3)) * (rng.Int63() - rng.Int63())
	if rng.Intn(3) == 0 {
		resp.Explain = randomString(rng)
	}
	if rng.Intn(3) == 0 {
		resp.COText = randomString(rng)
	}
	resp.Retries = rng.Intn(3) - 1
	resp.ElapsedUS = int64(rng.Intn(2)) * rng.Int63()
	if rng.Intn(8) == 0 {
		resp.Stats = &StatsPayload{Server: Counters{Accepted: rng.Int63(), ShedBusy: 3}}
		resp.Stats.Engine.PoolPages = rng.Intn(100)
	}
	return req, resp
}

// TestCodecDifferential runs both halves of the contract over 3 000 random
// frames, and the read half over the bytes each of them encodes to.
func TestCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		req, resp := randomFrames(rng)
		checkWriters(t, req, resp)
		checkDecoders(t, appendRequest(nil, req))
		frame, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		checkDecoders(t, frame)
		checkDecoders(t, mustMarshal(t, resp))
	}
}

// decoderCases are frames chosen for encoding/json's corners; each is read
// by both decoders and by encoding/json, which must agree.
var decoderCases = []string{
	// Shapes.
	`{}`, ` { } `, `null`, ` null `, `nul`, `{"id":1}x`, `{"id":1}{}`, `[]`, `"frame"`, `1`, `true`, ``, ` `,
	`{`, `{"id"`, `{"id":`, `{"id":1`, `{"id":1,}`, `{,"id":1}`, `{"id" 1}`, `{"id":1 "op":"x"}`,
	// Numbers.
	`{"id":0}`, `{"id":-0}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`,
	`{"id":1.0}`, `{"id":1e2}`, `{"id":-1}`, `{"id":01}`, `{"timeout_ms":-0}`,
	`{"timeout_ms":9223372036854775807}`, `{"timeout_ms":-9223372036854775808}`,
	`{"timeout_ms":9223372036854775808}`, `{"retries":-3}`, `{"retries":1.5}`,
	`{"rows":[[-0,0.0,1E400]]}`, `{"rows":[[1e-400,-1e308,2.5E+3,9223372036854775807]]}`,
	`{"rows":[[1.]]}`, `{"rows":[[.5]]}`, `{"rows":[[+1]]}`, `{"rows":[[-]]}`, `{"rows":[[1e]]}`,
	`{"rows":[[0x10]]}`, `{"rows":[[00]]}`, `{"rows":[[1e+]]}`, `{"unknown":1E400}`,
	// Types.
	`{"id":"1"}`, `{"ok":1}`, `{"ok":"true"}`, `{"op":1}`, `{"op":null}`, `{"ok":null}`, `{"id":null}`,
	`{"error":[]}`, `{"error":"x"}`, `{"error":null}`, `{"error":{}}`, `{"error":{"code":1}}`,
	`{"error":{"code":"busy","retryable":true,"message":"m","extra":[{}]}}`,
	`{"columns":null}`, `{"columns":[]}`, `{"columns":[null]}`, `{"columns":["a",1]}`, `{"columns":{}}`,
	`{"rows":null}`, `{"rows":[]}`, `{"rows":[null]}`, `{"rows":[[]]}`, `{"rows":[1]}`, `{"rows":["a"]}`,
	`{"rows":{}}`, `{"rows":[[null,true,false,"s",{"k":[1,{"n":null}]},[[]]]]}`,
	`{"rows":[[{"a":1,"a":2}]]}`, `{"stats":null}`, `{"stats":{}}`, `{"stats":1}`,
	`{"stats":{"server":{"accepted":3},"engine":{"PoolPages":2}}}`, `{"stats":{"server":1}}`,
	`{"stats":{"server":{"accepted":3}},"stats":{"server":{"shed_busy":4}}}`,
	// Member names: folding, escapes, repeats, unknowns.
	`{"ID":5,"Op":"exec","SQL":"x","Timeout_MS":3}`, `{"o\u212a":true}`, `{"\u017fql":"x","op":"y"}`,
	`{"ok":true,"OK":false}`, `{"\u0069d":7}`, `{"i\u0064":7}`, `{"id ":7}`, `{"":1}`, `{"id":1,"id":2}`,
	`{"columns":["a","b","c"],"columns":[null,"x"]}`, `{"columns":["a","b"],"columns":[]}`,
	`{"columns":["a","b"],"columns":[null,null,null]}`,
	`{"columns":["a","b","c"],"columns":["x"],"columns":[null,null,null]}`,
	`{"columns":["a","b","c","d","e"],"columns":[],"columns":[null,null]}`,
	`{"error":{"code":"a","message":"m"},"error":{"code":"b"}}`, `{"error":{"code":"a"},"error":null}`,
	`{"rows":[[1,2,3]],"rows":[[9]]}`, `{"rows":[[1]],"rows":null}`,
	`{"unknown":{"a":[1,2,{"b":"\u00e9"}]},"op":"ping"}`, `{"unknown":[1,}`, `{"unknown":tru}`,
	// Strings.
	`{"sql":"\"\\\/\b\f\n\r\t"}`, `{"sql":"\u0000\u001F\u007f"}`, `{"sql":"\ud83d\ude00"}`,
	`{"sql":"\ud83d"}`, `{"sql":"\ud83dx"}`, `{"sql":"\ude00\ud83d"}`, `{"sql":"\ud83d\u0041"}`,
	`{"sql":"\ud83d\ud83d\ude00"}`, `{"sql":"\ud83d\uZZZZ"}`, `{"sql":"\uDBFF\uDFFF"}`, `{"sql":"\u2028\u2029"}`,
	`{"sql":"\x"}`, `{"sql":"\'"}`, `{"sql":"\u12"}`, `{"sql":"\u12g4"}`, `{"sql":"` + "\x01" + `"}`,
	`{"sql":"` + "\t" + `"}`, `{"sql":"` + "\xff\xfe" + `"}`, `{"sql":"` + "\xed\xa0\x80" + `"}`,
	`{"sql":"` + "a\xc3" + `"}`, `{"sql":"` + "\u2028" + `"}`, `{"sql":"unterminated`, `{"sql":"\`,
	`{"sql":"\u`, `{"sql":"x\"`, `{"sql":"` + "\x7f" + `"}`,
	// Whitespace.
	"\t{\n\"id\"\r:\n1 ,\"op\" : \"ping\"}\n", "{\"id\":1}\v", "\xef\xbb\xbf{}", "null\x00", "{}\x00",
	"{\"id\":1\x00}", "\x00",
}

func TestCodecDecoderCorners(t *testing.T) {
	for _, c := range decoderCases {
		checkDecoders(t, []byte(c))
	}
	// The nesting limit, at and past encoding/json's 10 000.
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		inner := strings.Repeat("[", depth-2) + strings.Repeat("]", depth-2)
		checkDecoders(t, []byte(`{"rows":[`+inner+`]}`))
		checkDecoders(t, []byte(`{"x":`+strings.Repeat("[", depth-1)+strings.Repeat("]", depth-1)+`}`))
	}
}

// TestCodecRejectsWhatJSONCannotCarry: the codec writer fails where
// json.Marshal fails, and never writes half a frame.
func TestCodecRejectsWhatJSONCannotCarry(t *testing.T) {
	for _, v := range []any{math.Inf(1), math.Inf(-1), math.NaN(), []any{1.0, math.NaN()}, map[string]any{"k": math.Inf(1)}} {
		resp := &Response{OK: true, Rows: [][]any{{v}}}
		if _, err := json.Marshal(resp); err == nil {
			t.Fatalf("json.Marshal accepted %v", v)
		}
		if _, err := appendResponse(nil, resp); err == nil {
			t.Fatalf("appendResponse accepted %v", v)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, resp); err == nil || buf.Len() != 0 {
			t.Fatalf("WriteFrame(%v): err=%v, wrote %d bytes", v, err, buf.Len())
		}
	}
}

// FuzzWireFrame: on arbitrary bytes the decoders never panic and agree with
// encoding/json; whatever encoding/json accepted as a Response then
// round-trips through the codec writer and, re-encoded by json.Marshal,
// through the codec reader.
func FuzzWireFrame(f *testing.F) {
	for _, s := range decoderCases {
		f.Add([]byte(s))
	}
	for _, v := range fuzzSeeds() {
		p, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkDecoders(t, p)
		var req Request
		if json.Unmarshal(p, &req) == nil {
			checkWriters(t, &req, &Response{})
		}
		var resp Response
		if json.Unmarshal(p, &resp) == nil {
			checkWriters(t, &Request{}, &resp)
		}
	})
}

// fuzzSeeds are the frame shapes every bench workload exchanges, plus the
// awkward strings, the extreme numbers and a null in each member.
func fuzzSeeds() []any {
	row := func(v ...any) []any { return v }
	seeds := []any{
		&Request{ID: 1, Op: OpPing},
		&Request{ID: 2, Op: OpStats},
		&Request{ID: 3, Op: OpExec, SQL: "SELECT eno, ename, descr, edno FROM EMP WHERE eno = 10042"},
		&Request{ID: 4, Op: OpExec, SQL: "BEGIN; UPDATE EMP SET sal = sal - 3 WHERE eno = 7; UPDATE EMP SET sal = sal + 3 WHERE eno = 9; COMMIT", TimeoutMS: 250},
		&Request{ID: 5, Op: OpExec, SQL: "OUT OF Xdept AS (SELECT * FROM DEPT WHERE dno = 7),\n  Xemp AS EMP,\n  employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)\nTAKE *"},
		&Response{ID: 1, OK: true},
		&Response{ID: 3, OK: true, Columns: []string{"ENO", "ENAME", "DESCR", "EDNO"},
			Rows: [][]any{row(int64(10042), "emp-10042", "c0-17 it's \"quoted\"", int64(42))}, ElapsedUS: 12},
		&Response{ID: 6, OK: true, Columns: []string{"ENO", "SAL"},
			Rows: [][]any{row(int64(1), 1500.5), row(int64(2), 1e21), row(int64(3), -0.0)}},
		&Response{ID: 7, OK: true, Columns: []string{"DESCR", "COUNT(*)", "SUM(SAL)"},
			Rows: [][]any{row("engineer", int64(812), 2.4336e6), row(nil, int64(0), nil)}},
		&Response{ID: 8, OK: true, RowsAffected: 1, Retries: 2, ElapsedUS: 731},
		&Response{ID: 9, OK: true, COText: "CO{Xdept*:1 Xemp:20}\n-- Xdept* [dno dname]\n   (7, toys)\n-- employment: Xdept -> Xemp (20 connections)\n"},
		&Response{ID: 10, OK: true, Explain: "Project [ENO]\n  IndexScan EMP using EMP_PK"},
		&Response{OK: false, Err: ErrServerBusy},
		&Response{ID: 11, OK: false, Err: &Error{Code: CodeWriteConflict, Retryable: true, Message: "write conflict on EMP"}, Retries: 4},
		&Response{ID: 12, OK: true, Stats: &StatsPayload{Server: Counters{Accepted: 4, Requests: 9}}},
		&Response{ID: math.MaxUint64, OK: true, Columns: []string{"BIG"},
			Rows: [][]any{row(int64(math.MaxInt64), int64(math.MinInt64), math.MaxFloat64, 5e-324, true, false)}},
	}
	for _, s := range awkward {
		seeds = append(seeds, &Request{Op: s, SQL: s}, &Response{Columns: []string{s}, Rows: [][]any{{s}}, COText: s, Err: &Error{Message: s}})
	}
	for _, k := range append(append([]string{}, requestFields...), responseFields...) {
		seeds = append(seeds, map[string]any{k: nil})
	}
	return seeds
}

// Frame shapes for BenchmarkFrameCodec: the request and response of one
// round trip, sized like the bench workloads' ping, pk_get, fk_range and
// wide_result.
func benchFrames(rows, cols int) (*Request, *Response) {
	req := &Request{ID: 12345, Op: OpExec, SQL: "SELECT eno, ename, descr, edno FROM EMP WHERE eno = 10042"}
	if rows == 0 {
		return &Request{ID: 12345, Op: OpPing}, &Response{ID: 12345, OK: true}
	}
	resp := &Response{ID: 12345, OK: true, ElapsedUS: 17, Columns: []string{"ENO", "ENAME", "SAL", "DESCR"}[:cols]}
	for i := 0; i < rows; i++ {
		row := []any{int64(10000 + i), fmt.Sprintf("emp-%d", 10000+i), 1000.0 + float64(i%97)*12.5, "engineer"}
		resp.Rows = append(resp.Rows, row[:cols])
	}
	return req, resp
}

func BenchmarkFrameCodec(b *testing.B) {
	shapes := []struct {
		name       string
		rows, cols int
	}{{"ping", 0, 0}, {"pk_get", 1, 4}, {"fk_range_20", 20, 2}, {"wide_10k", 10000, 3}}
	for _, sh := range shapes {
		req, resp := benchFrames(sh.rows, sh.cols)
		// codec: what a round trip pays now — each side writes with append*
		// into a reused buffer and reads with decode*.
		b.Run(sh.name+"/codec", func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = appendRequest(buf[:0], req)
				var r Request
				if err := decodeRequest(buf, &r); err != nil {
					b.Fatal(err)
				}
				var err error
				if buf, err = appendResponse(buf[:0], resp); err != nil {
					b.Fatal(err)
				}
				var out Response
				if err := decodeResponse(buf, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
		// encoding_json: the reference arm, reflective Marshal and Unmarshal.
		b.Run(sh.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := json.Marshal(req)
				if err != nil {
					b.Fatal(err)
				}
				var r Request
				if err := json.Unmarshal(p, &r); err != nil {
					b.Fatal(err)
				}
				if p, err = json.Marshal(resp); err != nil {
					b.Fatal(err)
				}
				var out Response
				if err := json.Unmarshal(p, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
